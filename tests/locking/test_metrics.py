"""Unit tests for the learning-resilience security metrics."""

import numpy as np
import pytest

from repro.locking import (
    LockingSession,
    MetricTracker,
    global_metric,
    lock_step,
    metric_surface,
    modified_euclidean,
    restricted_metric,
    security_metric,
)
from repro.locking.odt import OperationDistributionTable
from repro.rtlir import Design


class TestModifiedEuclidean:
    def test_plain_distance(self):
        assert modified_euclidean([3.0, 4.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_nan_entries_excluded(self):
        # The 'x' marker of Algorithm 2: the second entry is ignored.
        assert modified_euclidean([3.0, 100.0], [0.0, np.nan]) == pytest.approx(3.0)

    def test_all_nan_gives_zero(self):
        assert modified_euclidean([1.0, 2.0], [np.nan, np.nan]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            modified_euclidean([1.0], [0.0, 0.0])

    def test_identity(self):
        assert modified_euclidean([2.0, 5.0], [2.0, 5.0]) == 0.0


class TestSecurityMetric:
    def test_initial_design_scores_zero(self):
        assert security_metric([25.0, 10.0], [25.0, 10.0]) == pytest.approx(0.0)

    def test_optimal_design_scores_hundred(self):
        assert security_metric([25.0, 10.0], [0.0, 0.0]) == pytest.approx(100.0)

    def test_intermediate_value(self):
        initial = [25.0, 10.0]
        current = [12.5, 5.0]
        assert security_metric(initial, current) == pytest.approx(50.0)

    def test_already_optimal_initial_design(self):
        # d(v_i, v_o) == 0: the design starts balanced; metric is 100 by definition.
        assert security_metric([0.0, 0.0], [0.0, 0.0]) == 100.0

    def test_metric_is_clipped_to_range(self):
        # Worse-than-initial distributions clamp at 0 rather than going negative.
        assert security_metric([5.0], [50.0]) == 0.0

    def test_restricted_exclusions(self):
        initial = [25.0, 10.0]
        current = [0.0, 10.0]
        optimal = [0.0, np.nan]
        assert security_metric(initial, current, optimal) == pytest.approx(100.0)


class TestOdtMetrics:
    def _session(self, rng):
        design = Design.from_verilog("""
        module m (input [7:0] a, b, output [7:0] x, y, z);
          wire [7:0] t0 = a + b;
          wire [7:0] t1 = t0 + a;
          wire [7:0] t2 = a * b;
          assign x = t0;
          assign y = t1;
          assign z = t2;
        endmodule
        """)
        return LockingSession(design, rng=rng)

    def test_global_metric_increases_with_balancing(self, rng):
        session = self._session(rng)
        initial = session.odt.vector()
        start = global_metric(session.odt, initial)
        lock_step(session, "+")
        after_one = global_metric(session.odt, initial)
        lock_step(session, "+")
        after_two = global_metric(session.odt, initial)
        assert start < after_one < after_two

    def test_restricted_metric_is_100_without_affected_pairs(self, rng):
        session = self._session(rng)
        assert restricted_metric(session.odt, session.odt.vector()) == 100.0

    def test_restricted_metric_drops_when_affected_pair_unbalanced(self, rng):
        session = self._session(rng)
        initial = session.odt.vector()
        lock_step(session, "*")            # balances (*, /) in one step
        assert restricted_metric(session.odt, initial) == pytest.approx(100.0)
        session.odt.mark_affected("+")     # (+,-) becomes relevant but unbalanced
        assert restricted_metric(session.odt, initial) < 100.0

    def test_global_100_implies_restricted_100(self, rng):
        session = self._session(rng)
        initial = session.odt.vector()
        for op in ("+", "+", "*"):
            lock_step(session, op)
        assert global_metric(session.odt, initial) == pytest.approx(100.0)
        assert restricted_metric(session.odt, initial) == pytest.approx(100.0)


class TestMetricTracker:
    def test_records_series(self):
        odt = OperationDistributionTable({"+": 5, "-": 1})
        tracker = MetricTracker(odt.vector())
        tracker.record(odt, key_bits=0)
        odt.add_operation("-")
        tracker.record(odt, key_bits=1)
        bits, global_series, restricted_series = tracker.as_series()
        assert bits == [0, 1]
        assert global_series[0] < global_series[1]
        assert tracker.final_global == global_series[-1]

    def test_empty_tracker_defaults(self):
        tracker = MetricTracker(np.array([1.0]))
        assert tracker.final_global == 100.0
        assert tracker.final_restricted == 100.0


class TestMetricSurface:
    def test_surface_shape_and_extremes(self):
        surface = metric_surface([25, 10])
        assert surface.shape == (26, 11)
        assert surface[0, 0] == pytest.approx(0.0)      # initial point
        assert surface[25, 10] == pytest.approx(100.0)  # secure point

    def test_surface_monotone_along_axes(self):
        surface = metric_surface([25, 10])
        assert np.all(np.diff(surface, axis=0) >= -1e-9)
        assert np.all(np.diff(surface, axis=1) >= -1e-9)

    def test_explicit_steps(self):
        surface = metric_surface([4, 4], steps=[3, 3])
        assert surface.shape == (3, 3)

    def test_steps_mismatch_raises(self):
        with pytest.raises(ValueError):
            metric_surface([4, 4], steps=[3])


class TestKeyWidthValidation:
    """Functional metrics reject keys that do not fit the locked design."""

    @pytest.fixture(scope="class")
    def sasc(self):
        import random

        from repro.bench import load_benchmark
        from repro.locking import ERALocker

        design = load_benchmark("SASC", scale=0.2)
        locked = ERALocker(rng=random.Random(0),
                           track_metrics=False).lock(design, 6).design
        assert locked.key_width == 6
        return locked

    @pytest.mark.parametrize("bits", [2, 5, 7, 9])
    def test_functional_corruption_correct_key(self, sasc, bits):
        from repro.locking import functional_corruption

        with pytest.raises(ValueError, match="correct_key"):
            functional_corruption(sasc, correct_key=[0] * bits, vectors=4,
                                  wrong_keys=2)

    @pytest.mark.parametrize("bits", [2, 5, 7, 9])
    def test_key_bit_sensitivity_base_key(self, sasc, bits):
        from repro.locking import key_bit_sensitivity

        with pytest.raises(ValueError, match="base_key"):
            key_bit_sensitivity(sasc, base_key=[0] * bits, vectors=4)

    @pytest.mark.parametrize("bits", [2, 5, 7, 9])
    def test_avalanche_sensitivity_key(self, sasc, bits):
        from repro.locking import avalanche_sensitivity

        with pytest.raises(ValueError, match="key"):
            avalanche_sensitivity(sasc, key=[0] * bits, vectors=4)

    def test_full_width_keys_still_accepted(self, sasc):
        from repro.locking import (avalanche_sensitivity,
                                   functional_corruption,
                                   key_bit_sensitivity)

        key = list(sasc.correct_key)
        assert functional_corruption(sasc, correct_key=key, vectors=4,
                                     wrong_keys=2).per_key_rates
        assert len(key_bit_sensitivity(sasc, base_key=key, vectors=4)) == 6
        assert avalanche_sensitivity(sasc, key=key, vectors=4).per_bit
