"""Output checks of a benchmark run.

* :func:`records_digest` -- one hash over every record (without the
  measured ``elapsed_seconds``) and, for co-evolution runs, the
  ``coevo.json`` history; equal inputs must give equal digests across
  repetitions, backends and traced runs.
* :func:`check_records` -- every attack record's ``kpa`` must equal
  ``repro.attacks.kpa.kpa(predicted_key, correct_key)``.
* :func:`check_locking_contract` -- re-locks one sample per (benchmark,
  locker) and checks that the correct key restores the original function,
  that a wrong key corrupts it, and that locking leaves the base design
  untouched.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional


class CheckError(AssertionError):
    """A benchmark output check failed."""


def load_records(store_root: Path, coevo: bool) -> List[Dict]:
    """Every job record of a finished run, sorted by store and job id."""
    roots = sorted(store_root.glob("gen-*")) if coevo else [store_root]
    records: List[Dict] = []
    for root in roots:
        for path in sorted((root / "jobs").glob("*.json")):
            records.append(json.loads(path.read_text()))
    return records


def records_digest(records: Iterable[Mapping],
                   history: Optional[Mapping] = None) -> str:
    """SHA-256 over the records without timing fields (and the history)."""
    digest = hashlib.sha256()
    for record in records:
        stripped = {key: value for key, value in record.items()
                    if key != "elapsed_seconds"}
        digest.update(json.dumps(stripped, sort_keys=True).encode())
        digest.update(b"\n")
    if history is not None:
        digest.update(json.dumps(history, sort_keys=True).encode())
    return digest.hexdigest()


def check_records(records: Iterable[Mapping]) -> None:
    """Raise :class:`CheckError` when an attack record's KPA is wrong."""
    from repro.attacks import kpa

    for record in records:
        if record.get("kind") != "attack":
            continue
        result = record["result"]
        expected = kpa(result["predicted_key"], result["correct_key"])
        if result["kpa"] != expected:
            raise CheckError(
                f"record {record['job_id']}: kpa {result['kpa']} != "
                f"kpa(predicted_key, correct_key) = {expected}")


def contract_jobs(scenario) -> List:
    """One sample-0 job per (benchmark, locker) of ``scenario``.

    A co-evolution scenario contributes its generation-0 population, the
    lockers its first generation store holds.
    """
    if scenario.coevo is not None:
        from repro.api.coevo import CoevoLoop

        loop = CoevoLoop(scenario)
        scenario = loop.generation_scenario(0, loop.initial_population())
    chosen: Dict[tuple, object] = {}
    for job in scenario.expand():
        key = (job.benchmark, job.locker.display_name)
        if job.sample == 0 and key not in chosen:
            chosen[key] = job
    return list(chosen.values())


def check_locking_contract(scenario, records: Iterable[Mapping],
                           vectors: int = 256) -> int:
    """Re-lock one sample per cell and check the locking contract.

    Returns the number of cells checked; raises :class:`CheckError` on the
    first violation.
    """
    import repro.api.runner as runner_module
    from repro.api import make_locker
    from repro.bench import load_benchmark
    from repro.sim import check_equivalence

    by_id = {record["job_id"]: record for record in records}
    jobs = contract_jobs(scenario)
    for job in jobs:
        where = f"{job.benchmark}/{job.locker.display_name}"
        fresh = load_benchmark(job.benchmark, scale=job.scale, seed=job.seed)
        fresh_print = fresh.fingerprint()
        budget = runner_module.key_budget_for(job, fresh.num_operations())
        locker = make_locker(job.locker.algorithm,
                             random.Random(job.locker_seed),
                             **job.locker.options)
        locked = locker.lock(fresh, key_budget=budget).design

        record = by_id.get(job.job_id)
        if record is None:
            raise CheckError(f"{where}: no record for job {job.job_id}")
        if record["key_width"] != locked.key_width:
            raise CheckError(f"{where}: re-lock key width {locked.key_width}"
                             f" != recorded {record['key_width']}")
        if (record["kind"] == "attack"
                and record["result"]["correct_key"] != list(locked.correct_key)):
            raise CheckError(f"{where}: re-lock key differs from the record")

        key = list(locked.correct_key)
        rng = random.Random(job.locker_seed)
        if not check_equivalence(fresh, locked, key, vectors=vectors,
                                 rng=rng).equivalent:
            raise CheckError(f"{where}: the correct key does not restore "
                             "the original function")
        wrong = [1 - bit for bit in key]
        if check_equivalence(fresh, locked, wrong, vectors=vectors,
                             rng=rng).equivalent:
            raise CheckError(f"{where}: a wrong key leaves the outputs "
                             "uncorrupted")

        # Locking must work on a copy: neither the freshly loaded design nor
        # the base design the run shared between its jobs may change.
        bases = [fresh]
        shared = getattr(runner_module, "_load_base_design", None)
        if shared is not None:
            bases.append(shared(job.benchmark, job.scale, job.seed))
        for base in bases:
            base.invalidate_fingerprint()
            if base.fingerprint() != fresh_print:
                raise CheckError(f"{where}: locking mutated the base design")
    return len(jobs)
