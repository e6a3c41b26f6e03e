"""Process-wide LRU cache of compiled evaluation plans.

Every attack-side hot loop — equivalence checks, corruption metrics, KPA
sweeps, SnapShot's functional validation — used to recompile the same design
into an :class:`~repro.sim.plan.steps.EvalPlan` on every call.  Plans are pure
functions of the netlist content, so this module caches them process-wide,
keyed by :meth:`Design.fingerprint() <repro.rtlir.design.Design.fingerprint>`:

* independent copies of the same design share a single compilation, and so
  does a design that a relocking round mutates and rolls back,
* a *mutated* design gets a new fingerprint and therefore a fresh plan — the
  stale entry simply ages out of the LRU.  Fingerprints auto-refresh on
  locking-style mutation (key bits or module items added, source replaced);
  for any other in-place AST surgery call
  :meth:`Design.invalidate_fingerprint` before simulating again,
* designs the plan compiler rejects are cached negatively, so scalar-fallback
  paths pay the failed compile once instead of per call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Union

from ..rtlir.design import Design
from .evaluator import SimulationError
from .plan import BatchCompileError, EvalPlan, compile_plan

#: Default number of plans kept by the process-wide cache.
DEFAULT_CACHE_SIZE = 128


@dataclass(frozen=True)
class PlanCacheInfo:
    """Hit/miss statistics of the process-wide plan cache."""

    hits: int
    misses: int
    size: int
    maxsize: int


_lock = threading.Lock()
_cache: "OrderedDict[str, Union[EvalPlan, BatchCompileError]]" = OrderedDict()
_maxsize = DEFAULT_CACHE_SIZE
_hits = 0
_misses = 0


def get_plan(design: Design) -> EvalPlan:
    """Return the cached :class:`EvalPlan` of ``design``, compiling on miss.

    Raises:
        SimulationError: for combinational dependency cycles (never cached).
        BatchCompileError: for designs without a static bit-slice form; the
            failure is cached, so repeated calls fail without recompiling.
    """
    global _hits, _misses
    fingerprint = design.fingerprint()
    with _lock:
        entry = _cache.get(fingerprint)
        if entry is not None:
            _cache.move_to_end(fingerprint)
            _hits += 1
            if isinstance(entry, BatchCompileError):
                raise BatchCompileError(*entry.args)
            return entry
        _misses += 1
    try:
        plan = compile_plan(design)
    except BatchCompileError as exc:
        with _lock:
            _store(fingerprint, exc)
        raise
    with _lock:
        _store(fingerprint, plan)
    return plan


def _store(fingerprint: str,
           entry: Union[EvalPlan, BatchCompileError]) -> None:
    _cache[fingerprint] = entry
    _cache.move_to_end(fingerprint)
    while len(_cache) > _maxsize:
        _cache.popitem(last=False)


def warm_plan_cache(design: Design) -> bool:
    """Best-effort pre-compilation of a design's plan into the cache.

    The warm-up hook of parallel scenario runners: a worker process calls
    this once per design fingerprint it is about to attack, so every
    simulation-backed step inside the worker (functional KPA, corruption and
    avalanche metrics, equivalence checks) starts from a cache hit.

    Returns:
        True when a plan is now cached for the design; False when the design
        is not batch-compilable or not simulatable at all (the scalar
        fallback paths will handle it — warming never raises).
    """
    try:
        get_plan(design)
    except SimulationError:
        return False
    return True


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def plan_cache_info() -> PlanCacheInfo:
    """Snapshot of the cache statistics."""
    with _lock:
        return PlanCacheInfo(hits=_hits, misses=_misses, size=len(_cache),
                             maxsize=_maxsize)


def set_plan_cache_size(maxsize: int) -> None:
    """Resize the cache (evicting least-recently-used entries if needed).

    Raises:
        ValueError: for a non-positive size.
    """
    global _maxsize
    if maxsize < 1:
        raise ValueError("plan cache size must be positive")
    with _lock:
        _maxsize = maxsize
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
