"""In-memory span tracing of one benchmark run, from outside the program.

:class:`Tracer` wraps public entry points of each layer (class methods, or
module attributes that callers resolve at call time) for the duration of a
``with tracer:`` block and restores the originals on exit.  Every call
becomes a span ``(job_id, name, depth, start, end)`` kept in memory; the
``job_id`` is the one of the enclosing ``execute_job`` call (``None``
outside jobs).  :meth:`Tracer.summary` turns the spans into per-layer
metrics, where ``<span>.s`` is *self* time: the span's duration minus the
time of its child spans.

The wrappers only call through, so a traced run draws exactly the same
random streams as an untraced one; the benchmark checks this by comparing
record digests.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names with a ``.calls`` and a ``.s`` metric.
CALL_SPANS = (
    "rtlir.design_copy", "rtlir.fingerprint",
    "locking.lock", "locking.relock", "locking.metrics",
    "attacks.extract", "ml.fit",
    "sim.get_plan", "sim.run_sweep", "sim.run_batch",
    "bench.load_benchmark",
    "api.execute_job", "api.store.save",
)

#: Span names with only a ``.s`` metric.
SELF_ONLY_SPANS = ("attacks.training_set", "attacks.predict",
                   "attacks.functional_kpa", "api.coevo.generation")

#: Counters recorded at the wrapped boundaries.
COUNTERS = ("attacks.relock_rounds", "attacks.train_rows", "ml.candidates",
            "ml.fit_rows", "sim.sweep_lanes", "api.coevo.generations")


class Tracer:
    """Record spans around the layer entry points while active."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Optional[str], str, int, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[str] = []
        self._job: Optional[str] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._cache_before = None
        self._cache_after = None

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable] = None,
              skip_under: Optional[str] = None,
              job_of: Optional[Callable] = None) -> Callable:
        """A call-through wrapper of ``fn`` that records a ``name`` span.

        ``after(result, args, kwargs)`` updates counters once the call
        returns; a call made directly inside a ``skip_under`` span is not
        recorded (it is that span's own work); ``job_of(args)`` names the
        job the span opens.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if skip_under is not None and stack and stack[-1] == skip_under:
                return fn(*args, **kwargs)
            outer_job = tracer._job
            if job_of is not None:
                tracer._job = job_of(args)
            depth = len(stack)
            stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((tracer._job, name, depth, start, end))
                tracer._job = outer_job
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace the plain function ``owner.attr`` by a span wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **options))

    def _count(self, counter: str, amount: Callable) -> Callable:
        def after(result, args, kwargs) -> None:
            self.counters[counter] += amount(result, args, kwargs)
        return after

    # -------------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        import repro.api.runner as runner_module
        import repro.attacks  # noqa: F401  (imports the kpa submodule)
        import repro.bench
        import repro.bench.registry
        import repro.locking
        import repro.locking.metrics as metrics_module
        import repro.sim
        import repro.sim.plan_cache as plan_cache
        from repro.api.coevo import CoevoLoop
        from repro.api.store import ResultsStore
        from repro.attacks.locality import LocalityExtractor
        from repro.attacks.relock import TrainingSetBuilder
        from repro.attacks.snapshot import SnapShotAttack
        from repro.locking.assure import AssureLocker
        from repro.ml.automl import AutoMLClassifier
        from repro.rtlir.design import Design
        from repro.sim import BatchSimulator

        # ``repro.attacks.kpa`` names the kpa() function once the package
        # is imported, so the module itself is reached through sys.modules.
        kpa_module = sys.modules["repro.attacks.kpa"]

        self._patch(Design, "copy", "rtlir.design_copy")
        self._patch(Design, "fingerprint", "rtlir.fingerprint")
        for locker in _locker_classes():
            # A relock is a lock of a locked design; its inner lock call is
            # counted as relock work, not as a second lock.
            self._patch(locker, "lock", "locking.lock",
                        skip_under="locking.relock")
        self._patch(AssureLocker, "relock", "locking.relock")
        for attr in ("functional_corruption", "key_bit_sensitivity",
                     "avalanche_sensitivity"):
            self._patch(metrics_module, attr, "locking.metrics")

        self._patch(TrainingSetBuilder, "build", "attacks.training_set",
                    after=self._training_set_counters)
        self._patch(LocalityExtractor, "extract_matrix", "attacks.extract")
        self._patch(SnapShotAttack, "predict_key", "attacks.predict")
        self._patch(kpa_module, "functional_kpa", "attacks.functional_kpa")
        self._patch(AutoMLClassifier, "fit", "ml.fit",
                    after=self._fit_counters)

        for owner in (plan_cache, repro.sim):
            self._patch(owner, "get_plan", "sim.get_plan")
        self._patch(BatchSimulator, "run_sweep", "sim.run_sweep",
                    after=self._count("sim.sweep_lanes", _sweep_lanes))
        self._patch(BatchSimulator, "run_batch", "sim.run_batch")
        for owner in (repro.bench.registry, repro.bench):
            self._patch(owner, "load_benchmark", "bench.load_benchmark")

        self._patch(runner_module, "execute_job", "api.execute_job",
                    job_of=lambda args: args[0].job_id)
        self._patch(ResultsStore, "save", "api.store.save")
        self._patch(CoevoLoop, "run_generation", "api.coevo.generation",
                    after=self._count("api.coevo.generations",
                                      lambda *_: 1))
        self._cache_before = plan_cache.plan_cache_info()
        return self

    def __exit__(self, *exc) -> None:
        import repro.sim.plan_cache as plan_cache

        self._cache_after = plan_cache.plan_cache_info()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _training_set_counters(self, result, args, kwargs) -> None:
        self.counters["attacks.relock_rounds"] += result.rounds
        self.counters["attacks.train_rows"] += result.size

    def _fit_counters(self, result, args, kwargs) -> None:
        self.counters["ml.candidates"] += len(result.leaderboard_)
        self.counters["ml.fit_rows"] += len(args[1])

    # -------------------------------------------------------------- summary

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float],
                                   Dict[str, int]]:
        """``(self seconds, inclusive seconds, calls)`` per span name."""
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        # Spans are appended when they end, so every child precedes its
        # parent; the child time of each open depth accumulates until the
        # parent at depth - 1 closes and claims it.
        child_time: Dict[int, float] = defaultdict(float)
        for _, name, depth, start, end in self.spans:
            duration = end - start
            self_s[name] += duration - child_time.pop(depth + 1, 0.0)
            total_s[name] += duration
            calls[name] += 1
            child_time[depth] += duration
        return self_s, total_s, calls

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced run that took ``wall_s``."""
        self_s, total_s, calls = self.layer_times()
        metrics: Dict[str, float] = {}
        for name in CALL_SPANS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.s"] = self_s.get(name, 0.0)
        for name in SELF_ONLY_SPANS:
            metrics[f"{name}.s"] = self_s.get(name, 0.0)
        for name in COUNTERS:
            metrics[name] = self.counters.get(name, 0)

        before, after = self._cache_before, self._cache_after
        lookups = ((after.hits + after.misses)
                   - (before.hits + before.misses))
        metrics["sim.plan_compiles"] = after.misses - before.misses
        metrics["sim.plan_cache.lookups"] = lookups
        metrics["sim.plan_cache.hit_ratio"] = (
            (after.hits - before.hits) / lookups if lookups else 0.0)

        covered = total_s.get("api.execute_job", 0.0) + total_s.get(
            "api.store.save", 0.0)
        metrics["api.runner.self_s"] = wall_s - covered
        metrics["trace.wall_s"] = wall_s
        metrics["share.attacks.training_set"] = (
            total_s.get("attacks.training_set", 0.0) / wall_s)
        metrics["share.ml.fit"] = total_s.get("ml.fit", 0.0) / wall_s
        metrics["share.sim_and_metrics"] = sum(
            seconds for name, seconds in self_s.items()
            if name.startswith(("sim.", "locking.metrics"))) / wall_s
        metrics["api.execute_job.total_s"] = total_s.get("api.execute_job",
                                                         0.0)
        return metrics

    def span_dump(self) -> Dict[str, List]:
        """Spans grouped by job id (``"-"`` outside jobs), for writing out."""
        by_job: Dict[str, List] = defaultdict(list)
        for job, name, depth, start, end in self.spans:
            by_job[job or "-"].append([name, depth, round(start, 6),
                                       round(end - start, 6)])
        return dict(by_job)


def _locker_classes() -> List[type]:
    """Every class in ``repro.locking`` that defines its own ``lock``."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro.locking") or module is None:
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module_name and "lock" in vars(cls)
                    and cls not in found):
                found.append(cls)
    return found


def _sweep_lanes(result, args, kwargs) -> int:
    """Lanes of one ``run_sweep`` call: sweep points x base lanes."""
    points = len(result)
    inputs = args[1] if len(args) > 1 else kwargs.get("inputs", {})
    base = kwargs.get("n")
    if base is None:
        base = len(next(iter(inputs.values()))) if inputs else 0
    return points * base
