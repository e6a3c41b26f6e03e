"""Benchmark design generators.

Every generator emits Verilog source text and parses it into a
:class:`~repro.rtlir.design.Design`, which doubles as an end-to-end exercise
of the frontend.  Three generator families exist:

* :func:`plus_network` — the structurally regular ``+``-network used in the
  paper's learning-resilience discussion (Fig. 4) and as ``N_2046``,
* :func:`alternating_network` — the fully balanced ``+``/``-`` network
  (``N_1023``),
* :func:`profile_design` — a dataflow design following an arbitrary
  :class:`~repro.bench.profiles.BenchmarkProfile` (the open-source benchmark
  stand-ins).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..rtlir.design import Design
from ..rtlir.operations import OPERATOR_CLASSES
from .profiles import BenchmarkProfile

#: Operators whose result is a single bit in the generated designs.
_SCALAR_RESULT_OPS = OPERATOR_CLASSES["relational"]


def plus_network(n_operations: int, width: int = 8, n_inputs: int = 16,
                 name: str = "plus_network") -> Design:
    """Generate a reduction network of ``n_operations`` ``+`` operations.

    The network chains and reduces its inputs with additions only, producing
    the fully imbalanced (biased) design of the paper's Fig. 4 discussion and
    the ``N_2046`` benchmark (``n_operations=2046``).

    Raises:
        ValueError: for a non-positive operation count.
    """
    return _homogeneous_network(["+"], n_operations, width, n_inputs, name)


def alternating_network(n_pairs: int, width: int = 8, n_inputs: int = 16,
                        name: str = "alternating_network") -> Design:
    """Generate a network with ``n_pairs`` ``+`` and ``n_pairs`` ``-`` operations.

    This is the fully balanced design of the paper (``N_1023`` uses
    ``n_pairs=1023``).
    """
    return _homogeneous_network(["+", "-"], 2 * n_pairs, width, n_inputs, name)


def _homogeneous_network(operators: Sequence[str], n_operations: int, width: int,
                         n_inputs: int, name: str) -> Design:
    if n_operations <= 0:
        raise ValueError("the network needs at least one operation")
    if n_inputs < 2:
        raise ValueError("the network needs at least two inputs")

    lines: List[str] = []
    inputs = [f"in{i}" for i in range(n_inputs)]
    ports = ["  input [%d:0] %s" % (width - 1, n) for n in inputs]
    ports.append(f"  output [{width - 1}:0] out")
    lines.append(f"module {name} (")
    lines.append(",\n".join(ports))
    lines.append(");")

    signals = list(inputs)
    for index in range(n_operations):
        op = operators[index % len(operators)]
        left = signals[index % len(signals)]
        right = signals[(index * 7 + 3) % len(signals)]
        wire = f"t{index}"
        lines.append(f"  wire [{width - 1}:0] {wire} = {left} {op} {right};")
        signals.append(wire)
    lines.append(f"  assign out = t{n_operations - 1};")
    lines.append("endmodule")
    return Design.from_verilog("\n".join(lines) + "\n", name=name)


def profile_design(profile: BenchmarkProfile, seed: int = 0,
                   name: Optional[str] = None) -> Design:
    """Generate a synthetic design following an operation profile.

    The generator emits one combinational wire assignment per profile
    operation, drawing operands from the primary inputs and from previously
    generated wires (biased towards recent wires so the dataflow has depth),
    then funnels the final wires into the outputs.  When the profile is
    ``sequential`` a clocked register stage with an asynchronous reset is
    appended (it adds no lockable operations, keeping the census equal to the
    profile).

    Args:
        profile: The operation profile to realise.
        seed: Seed for operand/operator interleaving (the census itself is
            deterministic and always matches the profile exactly).  The
            default is fixed, so the same call always gives the same design.
        name: Module name override.

    Raises:
        ValueError: for an empty profile.
    """
    if profile.total_operations == 0:
        raise ValueError(f"profile {profile.name!r} contains no operations")
    rng = random.Random(seed)
    module_name = name or profile.name.lower()
    width = profile.width
    n_inputs = max(2, profile.n_inputs)

    # Interleave the operator multiset so different types mix along the dataflow.
    operator_sequence: List[str] = []
    for op, count in profile.operations.items():
        operator_sequence.extend([op] * count)
    rng.shuffle(operator_sequence)

    inputs = [f"d{i}" for i in range(n_inputs)]
    lines: List[str] = [f"module {module_name} ("]
    port_lines = ["  input clk", "  input rst_n"]
    port_lines += [f"  input [{width - 1}:0] {n}" for n in inputs]
    port_lines.append(f"  output [{width - 1}:0] data_out")
    port_lines.append(f"  output [{width - 1}:0] status_out")
    if profile.sequential:
        port_lines.append(f"  output reg [{width - 1}:0] state_q")
    lines.append(",\n".join(port_lines))
    lines.append(");")

    vector_signals = list(inputs)
    scalar_signals: List[str] = []
    for index, op in enumerate(operator_sequence):
        left = _pick_operand(vector_signals, rng)
        right = _pick_operand(vector_signals, rng, avoid=left)
        wire = f"n{index}"
        if op in _SCALAR_RESULT_OPS:
            lines.append(f"  wire {wire} = {left} {op} {right};")
            scalar_signals.append(wire)
        elif op in ("<<", ">>", "<<<", ">>>"):
            shift = rng.randint(1, max(1, width // 2))
            lines.append(f"  wire [{width - 1}:0] {wire} = {left} {op} {shift};")
            vector_signals.append(wire)
        else:
            lines.append(f"  wire [{width - 1}:0] {wire} = {left} {op} {right};")
            vector_signals.append(wire)

    data_feed = vector_signals[-1]
    status_parts = scalar_signals[-width:] if scalar_signals else []
    lines.append(f"  assign data_out = {data_feed};")
    if status_parts:
        concat = ", ".join(reversed(status_parts))
        lines.append("  assign status_out = {" + concat + "};")
    else:
        lines.append(f"  assign status_out = {vector_signals[-2]};")

    if profile.sequential:
        select = scalar_signals[0] if scalar_signals else f"{inputs[0]}[0]"
        hold = vector_signals[-2]
        lines.append("  always @(posedge clk or negedge rst_n) begin")
        lines.append("    if (!rst_n)")
        lines.append("      state_q <= 0;")
        lines.append(f"    else if ({select})")
        lines.append(f"      state_q <= {data_feed};")
        lines.append("    else")
        lines.append(f"      state_q <= {hold};")
        lines.append("  end")

    lines.append("endmodule")
    return Design.from_verilog("\n".join(lines) + "\n", name=profile.name)


def _pick_operand(signals: List[str], rng: random.Random,
                  avoid: Optional[str] = None) -> str:
    """Pick an operand, biased towards recently created wires for depth."""
    if len(signals) == 1:
        return signals[0]
    # 60 % chance to draw from the most recent quarter of the pool.
    if rng.random() < 0.6:
        start = max(0, len(signals) - max(2, len(signals) // 4))
        candidates = signals[start:]
    else:
        candidates = signals
    choice = rng.choice(candidates)
    if avoid is not None and choice == avoid and len(candidates) > 1:
        alternatives = [s for s in candidates if s != avoid]
        choice = rng.choice(alternatives)
    return choice
