"""repro — ML-resilient RTL logic locking.

A self-contained reproduction of *"Designing ML-Resilient Locking at
Register-Transfer Level"* (DAC 2022): a Verilog frontend, ASSURE-style RTL
locking, the ERA/HRA ML-resilient locking algorithms, learning-resilience
security metrics, the RTL adaptation of the SnapShot attack with a
from-scratch auto-ML substrate, a synthetic benchmark suite and the full
evaluation harness.

Quick start::

    import random
    from repro.bench import load_benchmark
    from repro.locking import ERALocker
    from repro.attacks import SnapShotAttack

    design = load_benchmark("MD5", scale=0.2)  # seed 0 by default
    locked = ERALocker(rng=random.Random(0)).lock(
        design, key_budget=int(0.75 * design.num_operations()))
    result = SnapShotAttack(rounds=20).attack(locked.design)
    print(f"KPA against ERA: {result.kpa:.1f} %")
"""

from . import api, attacks, bench, eval, locking, ml, rtlir, sim, verilog

__version__ = "1.1.0"

__all__ = ["api", "attacks", "bench", "eval", "locking", "ml", "rtlir",
           "sim", "verilog", "__version__"]
