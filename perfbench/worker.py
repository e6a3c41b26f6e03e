"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload fig6-relock --seed 1 \\
        --store .perfbench/run/rep-0 [--serial] [--traced SPANS.json] \\
        [--contract] [--size tiny]

The clock for ``setup_s`` starts before ``import repro`` and stops once the
scenario is parsed and expanded and the store (and runner) exist.  The run
itself is timed from the ``Runner.run()`` / ``run_coevo`` call to its
return.  After the timed section the records are read back from the store,
digested and checked; ``--contract`` adds the untimed locking-contract
check.  The last line of standard output is one JSON object.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_once(workload: str, seed: int, store: Path, size: str = "full",
             serial: bool = False, spans: Path = None,
             contract: bool = False) -> dict:
    """Set up, run and check one repetition; return its measurements."""
    from repro.api import ResultsStore, Runner, Scenario
    from repro.api.coevo import run_coevo

    coevo = workloads.is_coevo(workload)
    pool = 0 if serial else workloads.workers(workload)
    backend = "process" if pool else "serial"
    scenario = Scenario.from_dict(workloads.scenario_dict(workload, seed,
                                                          size))
    scenario.expand()
    store.mkdir(parents=True, exist_ok=False)
    runner = None
    if not coevo:
        runner = Runner(scenario, store=ResultsStore(store), jobs=max(pool, 1),
                        backend=backend)
    setup_s = time.perf_counter() - _STARTED

    tracer = None
    if spans is not None:
        from tracing import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        if coevo:
            report = run_coevo(scenario, store_root=store,
                               jobs=max(pool, 1), backend=backend)
        else:
            report = runner.run()
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mib = _peak_rss_mib()

    records = checks.load_records(store, coevo)
    history = None
    if coevo:
        history = json.loads((store / "coevo.json").read_text())
        attempted = report.total_jobs
        failed = sum(entry["quarantined"] for entry in report.history)
    else:
        attempted = report.total
        failed = len(report.failures)
    if failed == 0 and len(records) != attempted:
        raise checks.CheckError(f"{len(records)} records for {attempted} "
                                "jobs")
    checks.check_records(records)

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib, "attempted": attempted,
        "failed": failed, "digest": checks.records_digest(records, history),
    }
    if contract:
        # Co-evolution generations reuse job ids, so the contract check
        # reads the generation-0 store its jobs come from.
        first = checks.load_records(store / "gen-000", False) if coevo \
            else records
        result["contract_cells"] = checks.check_locking_contract(scenario,
                                                                 first)
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s)
        spans.write_text(json.dumps(tracer.span_dump()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--serial", action="store_true",
                        help="run on the serial backend even for a pool "
                             "workload")
    parser.add_argument("--traced", type=Path, default=None,
                        metavar="SPANS_JSON",
                        help="trace the run and write its spans here")
    parser.add_argument("--contract", action="store_true",
                        help="run the locking-contract check after timing")
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.store, size=args.size,
                      serial=args.serial, spans=args.traced,
                      contract=args.contract)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
