"""Difference counts on the packed sweep must equal per-lane comparisons.

``sweep_differences`` answers, per sweep point, "how many base lanes differ
from point 0 and how many output bits flipped" without unpacking a lane.
The oracle here is the per-lane comparison it replaced: ``run_sweep``'s
unpacked values, compared by the old ``differing_lanes`` helper and the
old XOR/``bit_count`` loop of the metrics, kept verbatim below.  Counts
must match exactly for every lane count, tiling, sweep kind and engine.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.kpa import functional_kpa_many
from repro.bench import load_benchmark, plus_network
from repro.locking import (
    AssureLocker,
    ERALocker,
    avalanche_sensitivity,
    flip_bits,
    functional_corruption,
    key_bit_sensitivity,
)
from repro.rtlir import Design, KeyBit
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    batch_to_vectors,
    input_signals,
    output_corruption,
    output_signals,
    random_input_batch,
    random_key,
    sweep_differences,
)
from repro.sim.plan.executor import _block_counts, _tile_slices

#: Base lane counts: single lane, sub-byte, whole byte, odd, word-sized,
#: just past a power of two, and a metric-sweeps-sized batch.
BASE_LANES = [1, 7, 8, 13, 64, 129, 2048]


# ---------------------------------------------------------------------------
# The oracle: the per-lane comparison the counts replaced
# ---------------------------------------------------------------------------


def differing_lanes(expected, actual, names=None, n=None):
    """Lanes on which two ``run_batch`` results differ in any output."""
    compared = list(names) if names is not None else list(expected)
    if n is None:
        n = len(expected[compared[0]]) if compared else 0
    return [lane for lane in range(n)
            if any(expected[name][lane] != actual[name][lane]
                   for name in compared)]


def oracle(design, runs, vectors):
    """``(lanes, bits, output_bits)`` from per-lane sweep values."""
    reference, *flipped_runs = runs
    output_widths = {name: w for name, w in output_signals(design)
                     if name in reference}
    lanes_changed = []
    bits_flipped = []
    for flipped in flipped_runs:
        lanes = differing_lanes(reference, flipped, n=vectors)
        flipped_bits = 0
        for lane in lanes:
            for name in output_widths:
                delta = reference[name][lane] ^ flipped[name][lane]
                flipped_bits += delta.bit_count()
        bits_flipped.append(flipped_bits)
        lanes_changed.append(len(lanes))
    return lanes_changed, bits_flipped, sum(output_widths.values())


def scalar_runs(design, inputs, n, keys=None, bindings=None):
    """Per-point outputs of the AST engine (the uncompilable-design oracle)."""
    simulator = CombinationalSimulator(design, engine="ast")
    points = len(keys) if keys is not None else len(bindings)
    runs = []
    for point in range(points):
        key = keys[point] if keys is not None else None
        binding = bindings[point] if bindings is not None else {}
        outputs = {name: [] for name in simulator.output_names}
        for vector in batch_to_vectors(inputs, n):
            values = simulator.run({**vector, **binding}, key=key)
            for name in outputs:
                outputs[name].append(values[name])
        runs.append(outputs)
    return runs


def assert_matches_oracle(design, inputs, n, keys=None, bindings=None,
                          max_lanes=None):
    counted = sweep_differences(design, inputs, keys=keys, bindings=bindings,
                                n=n, max_lanes=max_lanes)
    runs = BatchSimulator(design).run_sweep(inputs, keys=keys,
                                            bindings=bindings, n=n)
    assert tuple(counted) == oracle(design, runs, n)
    return counted


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _locked(name="MD5", algorithm="assure", seed=0, scale=0.15):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    locker = AssureLocker("serial", rng=random.Random(seed),
                          track_metrics=False) if algorithm == "assure" \
        else ERALocker(rng=random.Random(seed), track_metrics=False)
    return locker.lock(design, budget).design


def _keys(design, count, seed):
    rng = random.Random(seed)
    return [design.correct_key] + [random_key(design.key_width, rng)
                                   for _ in range(count - 1)]


UNCOMPILABLE = """
module oddball (input [3:0] a, input [1:0] n, input [1:0] lock_key,
                output [7:0] y, output [3:0] z);
  wire [3:0] t = lock_key[0] ? (a + 1) : (a - 1);
  assign y = {n{a}};
  assign z = lock_key[1] ? t : (t ^ 4'b0101);
endmodule
"""

DYNAMIC = """
module dynrep (input [3:0] a, input [1:0] n, output [7:0] y);
  assign y = {n{a}} + a;
endmodule
"""

SEQUENTIAL_OUTPUT = """
module seqout (input clk, input [7:0] a, input [7:0] b, output [7:0] y,
               output reg [3:0] q);
  assign y = a ^ b;
  always @(posedge clk) q <= a[3:0];
endmodule
"""


def _oddball_locked():
    design = Design.from_verilog(UNCOMPILABLE)
    design.key_port = "lock_key"
    design.key_bits = [
        KeyBit(index=0, kind="operation", correct_value=1),
        KeyBit(index=1, kind="operation", correct_value=1),
    ]
    return design


# ---------------------------------------------------------------------------
# Oracle comparisons
# ---------------------------------------------------------------------------


class TestMatchesPerLaneOracle:
    @pytest.mark.parametrize("base", BASE_LANES)
    @pytest.mark.parametrize("algorithm", ["assure", "era"])
    def test_key_sweep(self, base, algorithm):
        design = _locked(algorithm=algorithm)
        inputs = random_input_batch(design, random.Random(base), base)
        counted = assert_matches_oracle(design, inputs, base,
                                        keys=_keys(design, 7, seed=base))
        assert len(counted.lanes) == 6

    @pytest.mark.parametrize("base", BASE_LANES)
    def test_binding_sweep(self, base):
        design = plus_network(16, n_inputs=4, name="plus16")
        inputs = random_input_batch(design, random.Random(base), base)
        del inputs["in0"]
        bindings = [{"in0": value} for value in (0, 1, 0x8000, 0xFFFF, 5)]
        assert_matches_oracle(design, inputs, base, bindings=bindings)

    @pytest.mark.parametrize("base", [7, 64])
    def test_shared_key_with_bindings(self, base):
        # The avalanche shape: one key on every point, so the key cone is
        # hoisted and only the bound input's fan-out is counted per point.
        design = _locked()
        probed, width = max(input_signals(design), key=lambda item: item[1])
        inputs = random_input_batch(design, random.Random(base), base)
        del inputs[probed]
        bindings = [{probed: 0}] + [{probed: 1 << bit}
                                    for bit in range(0, width, 3)]
        assert_matches_oracle(design, inputs, base,
                              keys=[design.correct_key] * len(bindings),
                              bindings=bindings)

    @pytest.mark.parametrize("base", [8, 13])
    def test_shared_key_alone_counts_zero(self, base):
        # Every output is point-invariant: nothing differs from point 0.
        design = _locked(algorithm="era")
        inputs = random_input_batch(design, random.Random(1), base)
        key = _keys(design, 2, seed=3)[1]
        counted = assert_matches_oracle(design, inputs, base,
                                        keys=[key] * 5)
        assert counted.lanes == [0] * 4
        assert counted.bits == [0] * 4

    def test_single_point_has_no_counts(self):
        design = _locked()
        inputs = random_input_batch(design, random.Random(2), 8)
        counted = sweep_differences(design, inputs,
                                    keys=[design.correct_key], n=8)
        assert counted.lanes == [] and counted.bits == []

    def test_correct_key_differs_nowhere(self):
        design = _locked()
        inputs = random_input_batch(design, random.Random(4), 64)
        keys = [design.correct_key] + _keys(design, 3, seed=9)
        counted = sweep_differences(design, inputs, keys=keys, n=64)
        assert counted.lanes[0] == 0 and counted.bits[0] == 0
        assert counted.lanes[1] > 0 and counted.bits[1] >= counted.lanes[1]


class TestTiling:
    """Ragged ``max_lanes`` tilings count exactly what one wide pass does."""

    @pytest.mark.parametrize("base", [13, 64])
    @pytest.mark.parametrize("tile_points", [1, 3, 4, 11, None])
    def test_key_sweep_tilings(self, base, tile_points):
        design = _locked(algorithm="era")
        inputs = random_input_batch(design, random.Random(5), base)
        keys = _keys(design, 11, seed=6)
        # 3 points per tile leaves a ragged 2-point last tile; the +1 lane
        # checks that caps round down to whole points.
        max_lanes = None if tile_points is None else tile_points * base + 1
        assert_matches_oracle(design, inputs, base, keys=keys,
                              max_lanes=max_lanes)

    @pytest.mark.parametrize("max_lanes", [8, 24, 1 << 30])
    def test_binding_sweep_tilings(self, max_lanes):
        design = plus_network(16, n_inputs=4, name="plus16")
        inputs = random_input_batch(design, random.Random(7), 8)
        del inputs["in1"]
        bindings = [{"in1": value} for value in range(9)]
        assert_matches_oracle(design, inputs, 8, bindings=bindings,
                              max_lanes=max_lanes)

    def test_tiles_mix_numpy_and_int_counters(self):
        # One 16-bit output: the 16-point tile has enough block-words for
        # the numpy counter, the ragged 2-point last tile (at most 2 x 16)
        # takes the int counter.
        design = plus_network(16, n_inputs=4, name="plus16")
        inputs = random_input_batch(design, random.Random(8), 8)
        del inputs["in2"]
        bindings = [{"in2": value * 977} for value in range(18)]
        assert_matches_oracle(design, inputs, 8, bindings=bindings,
                              max_lanes=16 * 8)


class TestUncompilableFallback:
    def test_key_sweep(self):
        design = _oddball_locked()
        inputs = random_input_batch(design, random.Random(11), 13)
        keys = [[1, 1], [0, 1], [1, 0], [0, 0]]
        counted = sweep_differences(design, inputs, keys=keys, n=13)
        runs = scalar_runs(design, inputs, 13, keys=keys)
        assert tuple(counted) == oracle(design, runs, 13)
        assert counted.lanes[2] > 0

    def test_binding_sweep(self):
        design = Design.from_verilog(DYNAMIC)
        inputs = {"n": [random.Random(12).getrandbits(2) for _ in range(9)]}
        bindings = [{"a": value} for value in (0, 1, 3, 8, 15)]
        counted = sweep_differences(design, inputs, bindings=bindings, n=9)
        runs = scalar_runs(design, inputs, 9, bindings=bindings)
        assert tuple(counted) == oracle(design, runs, 9)
        assert sum(counted.bits) > 0

    def test_rejects_key_sweep_of_unlocked_design(self):
        design = Design.from_verilog(DYNAMIC)
        with pytest.raises(SimulationError):
            sweep_differences(design, {"a": [1], "n": [1]}, keys=[[0], [1]])

    def test_rejects_ragged_inputs(self):
        design = _oddball_locked()
        with pytest.raises(SimulationError):
            sweep_differences(design, {"a": [1, 2], "n": [1]},
                              keys=[[1, 1], [0, 0]])


class TestOutputBits:
    def test_counts_only_combinationally_driven_outputs(self):
        design = Design.from_verilog(SEQUENTIAL_OUTPUT)
        inputs = random_input_batch(design, random.Random(13), 16)
        del inputs["a"]
        bindings = [{"a": 0}, {"a": 0xFF}]
        counted = assert_matches_oracle(design, inputs, 16,
                                        bindings=bindings)
        # ``q`` is driven by an always block, so only ``y`` is compared.
        assert counted.output_bits == 8
        assert counted.bits == [16 * 8]


@settings(max_examples=40, deadline=None)
@given(base=st.integers(1, 80), points=st.integers(1, 9),
       tile_points=st.one_of(st.none(), st.integers(1, 9)),
       binding=st.booleans(), seed=st.integers(0, 2**16))
def test_property_matches_oracle(base, points, tile_points, binding, seed):
    design = _locked(algorithm="era")
    rng = random.Random(seed)
    inputs = random_input_batch(design, rng, base)
    keys = [random_key(design.key_width, rng) for _ in range(points)]
    bindings = None
    if binding:
        probed = next(iter(inputs))
        inputs.pop(probed)
        bindings = [{probed: rng.getrandbits(4)} for _ in range(points)]
    max_lanes = None if tile_points is None else tile_points * base
    assert_matches_oracle(design, inputs, base, keys=keys, bindings=bindings,
                          max_lanes=max_lanes)


# ---------------------------------------------------------------------------
# Packed-domain helpers
# ---------------------------------------------------------------------------


class TestTileSlices:
    @pytest.mark.parametrize("base", [1, 7, 8, 13, 16, 64, 129, 2048])
    @pytest.mark.parametrize("points", [1, 2, 5, 65])
    def test_byte_repetition_equals_multiply(self, base, points):
        rng = random.Random(base * 100 + points)
        words = [0, (1 << base) - 1, 1, 1 << (base - 1)] \
            + [rng.getrandbits(base) for _ in range(8)]
        comb = ((1 << (base * points)) - 1) // ((1 << base) - 1)
        assert _tile_slices(words, base, points) == \
            [word * comb for word in words]


class TestBlockCounts:
    @pytest.mark.parametrize("base,points", [
        (64, 3), (64, 16), (8, 200), (2048, 3), (2048, 20), (13, 90),
        (1, 1500)])
    def test_matches_per_lane_counts(self, base, points):
        rng = random.Random(base + points)
        lanes = base * points
        words = [rng.getrandbits(lanes) & rng.getrandbits(lanes)
                 for _ in range(5)]
        lanes_set, bits_set = _block_counts(words, base, points)
        for index in range(points):
            block = range(index * base, (index + 1) * base)
            assert lanes_set[index] == sum(
                1 for lane in block if any(word >> lane & 1 for word in words))
            assert bits_set[index] == sum(
                word >> lane & 1 for lane in block for word in words)

    def test_no_diffs(self):
        assert _block_counts([], 8, 3) == ([0, 0, 0], [0, 0, 0])


# ---------------------------------------------------------------------------
# Golden values of every consumer, captured before the counting rewrite
# ---------------------------------------------------------------------------

#: ``(algorithm, benchmark, scale)`` -> consumer outputs with fixed seeds
#: (see ``_golden_values``).
GOLDEN = {
    ("assure", "MD5", 0.15): {
        "corruption": ([0.65, 1.0, 0.825, 1.0, 0.55], 0.0978125),
        "sensitivity": [
            0.5833333333333334, 0.0, 0.0, 0.0, 0.4583333333333333,
            0.5833333333333334, 0.25, 0.4166666666666667, 0.0, 0.375,
            0.4166666666666667, 0.4166666666666667, 0.0, 0.4166666666666667,
            0.0, 0.0, 0.3333333333333333, 0.0, 0.0, 0.4166666666666667, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.4166666666666667, 0.0, 0.0, 1.0, 0.0],
        "avalanche": ("d0", 236, [
            0.020833333333333332, 0.036458333333333336,
            0.036458333333333336, 0.03125, 0.036458333333333336,
            0.036458333333333336, 0.041666666666666664,
            0.020833333333333332], [
            0.3333333333333333, 0.3333333333333333, 0.5, 0.3333333333333333,
            0.25, 0.4166666666666667, 0.6666666666666666,
            0.3333333333333333]),
        "output_corruption": 1.0,
        "kpa": [100.0, 19.444444444444443, 0.0, 0.0, 100.0],
    },
    ("era", "I2C_SL", 0.3): {
        "corruption": ([1.0, 1.0, 1.0, 1.0, 1.0], 0.259375),
        "sensitivity": [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.8333333333333334,
                        1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        "avalanche": ("d0", 236, [
            0.015625, 0.057291666666666664, 0.078125, 0.041666666666666664,
            0.041666666666666664, 0.026041666666666668,
            0.005208333333333333, 0.03125], [
            0.25, 0.3333333333333333, 0.5833333333333334,
            0.3333333333333333, 0.5, 0.25, 0.08333333333333333,
            0.4166666666666667]),
        "output_corruption": 1.0,
        "kpa": [100.0, 0.0, 0.0, 0.0, 0.0],
    },
}


def _golden_values(design):
    corruption = functional_corruption(design, vectors=40, wrong_keys=5,
                                       rng=random.Random(21))
    sensitivity = key_bit_sensitivity(design, vectors=24,
                                      rng=random.Random(22))
    avalanche = avalanche_sensitivity(design, vectors=12,
                                      rng=random.Random(23))
    wrong = flip_bits(design.correct_key, range(0, design.key_width, 2))
    dead = [index for index, value in enumerate(sensitivity) if value == 0.0]
    candidates = [design.correct_key, flip_bits(design.correct_key, [0]),
                  wrong, flip_bits(design.correct_key,
                                   range(design.key_width)),
                  flip_bits(design.correct_key, dead)]
    return {
        "corruption": (corruption.per_key_rates, corruption.avalanche),
        "sensitivity": sensitivity,
        "avalanche": (avalanche.signal, avalanche.base_value,
                      avalanche.per_bit, avalanche.lanes_changed),
        "output_corruption": output_corruption(
            design, design.correct_key, wrong, vectors=50,
            rng=random.Random(24)),
        "kpa": functional_kpa_many(design, candidates, vectors=36,
                                   rng=random.Random(25)),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: case[1])
def test_golden_values(case):
    algorithm, name, scale = case
    assert _golden_values(_locked(name, algorithm, scale=scale)) \
        == GOLDEN[case]
