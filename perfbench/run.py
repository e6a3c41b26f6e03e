"""End-to-end benchmark of the scenario pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6-relock --seed 1 --seconds 25 \\
        --trace 0

Each repetition runs one seeded scenario (see ``workloads.py``) in a fresh
interpreter (``worker.py``) against a fresh results store; repetitions
continue until ``--seconds`` have passed and every metric is the median
over them.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics:

* ``wall_s`` -- scenario makespan, ``Runner.run()`` / ``run_coevo`` call to
  return, set-up excluded;
* ``cpu_s`` -- CPU seconds of the run, pool workers included;
* ``setup_s`` -- fresh interpreter, from before ``import repro`` until the
  scenario is parsed and expanded and the store and runner exist;
* ``peak_rss_mib`` -- peak resident memory of the run's process plus its
  largest child;
* ``ok_job_frac`` -- jobs that produced a record over jobs attempted.

With ``--trace 1`` every traced repetition is paired with an untraced one
of the same backend, and the line holds the per-layer metrics of
``tracing.py`` (medians over the traced repetitions) plus
``trace.overhead_frac`` and ``api.backend.efficiency``.  ``coevo-pool``
traces a *serial* run, which is also checked against the pool run's
digest.

Every repetition's records digest must be equal, and equal to the one in
``digests.json`` at the default seed; every attack record's KPA is
recomputed, and one repetition re-checks the locking contract.  A failed
check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Wall-clock budget of one worker process, in seconds.
WORKER_TIMEOUT = 150

#: Unit of every reported metric.
UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "ok_job_frac": "frac",
}


class BenchmarkFailure(RuntimeError):
    """A worker failed or a check did not hold."""


def unit_of(name: str) -> str:
    """Unit of a metric, end-to-end or per-layer."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("share.") or name.endswith(
            ("_ratio", "_frac", "efficiency")):
        return "ratio"
    return "count"


class Session:
    """The worker processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = ROOT / ".perfbench" / str(os.getpid())
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        # One BLAS thread: the load is one process (two for the pool), and
        # a thread pool sized to the machine would add scheduling noise.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        tmp = self.workdir / "t"
        # Pool managers bind a socket about 35 characters below TMPDIR; keep
        # it in the checkout unless that exceeds the 107-byte socket path.
        if len(str(tmp)) <= 70:
            self.env["TMPDIR"] = str(tmp)
        self.reps = 0

    def __enter__(self) -> "Session":
        (self.workdir / "t").mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass

    def rep(self, serial: bool = False, traced: bool = False,
            contract: bool = False) -> Dict:
        """Run one repetition in a fresh interpreter; return its result."""
        store = self.workdir / f"rep-{self.reps}"
        self.reps += 1
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--size", self.size, "--store", str(store)]
        if serial:
            command.append("--serial")
        if traced:
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            command += ["--traced", str(
                traces / f"{self.workload}-s{self.seed}.json")]
        if contract:
            command.append("--contract")
        done = subprocess.run(command, env=self.env, cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT)
        shutil.rmtree(store, ignore_errors=True)
        if done.returncode != 0:
            raise BenchmarkFailure(
                f"worker exited with status {done.returncode}: "
                f"{' '.join(command[1:])}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def measure(session: Session, seconds: float, trace: bool) -> Dict:
    """Repeat the workload for ``seconds``; return results by role."""
    pool = workloads.workers(session.workload) > 0
    roles: Dict[str, List[Dict]] = {"timed": [], "untraced": [],
                                    "traced": []}
    started = time.monotonic()
    sets = 0
    # Start another set only while it is expected to end within the budget,
    # so a run lasts about ``seconds`` whatever the repetition length.
    while not sets or (time.monotonic() - started) * (sets + 1) / sets \
            <= seconds:
        sets += 1
        first = sets == 1
        roles["timed"].append(session.rep(contract=first))
        if not trace:
            continue
        if pool:
            roles["untraced"].append(session.rep(serial=True))
        else:
            roles["untraced"].append(roles["timed"][-1])
        roles["traced"].append(session.rep(serial=True, traced=True))
    return roles


def _median(results: List[Dict], key: str) -> float:
    return statistics.median(result[key] for result in results)


def end_to_end(roles: Dict) -> Dict[str, float]:
    timed = roles["timed"]
    attempted = sum(result["attempted"] for result in timed)
    failed = sum(result["failed"] for result in timed)
    metrics = {key: _median(timed, key)
               for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")}
    metrics["ok_job_frac"] = (attempted - failed) / attempted
    return metrics


def per_layer(roles: Dict, workers: int) -> Dict[str, float]:
    traced = roles["traced"]
    layers = [result["layers"] for result in traced]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (_median(traced, "wall_s")
                                      / _median(roles["untraced"], "wall_s")
                                      - 1.0)
    capacity = _median(roles["timed"], "wall_s") * workers
    metrics["api.backend.capacity_s"] = capacity
    metrics["api.backend.efficiency"] = (
        metrics["api.execute_job.total_s"] / capacity)
    return metrics


def verify(roles: Dict, expected: Optional[str]) -> List[str]:
    """Problems with the run's outputs (empty when every check holds)."""
    problems = []
    results = [result for group in roles.values() for result in group]
    digests = sorted({result["digest"] for result in results})
    if len(digests) != 1:
        problems.append(f"records digests differ between repetitions "
                        f"(timed, serial and traced): {digests}")
    elif expected is not None and digests[0] != expected:
        problems.append(f"records digest {digests[0]} != committed "
                        f"{expected}")
    failed = sum(result["failed"] for result in results)
    if failed:
        problems.append(f"{failed} job(s) failed or were quarantined")
    if not any(result.get("contract_cells") for result in results):
        problems.append("the locking-contract check covered no cell")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the scenario pipeline.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' runs a seconds-long variant (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    digests = json.loads((HERE / "digests.json").read_text())
    expected = workloads.committed_digest(digests, args.workload, args.seed,
                                          args.size)
    with Session(args.workload, args.seed, args.size) as session:
        try:
            roles = measure(session, args.seconds, bool(args.trace))
        except (BenchmarkFailure, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: FAILED: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1

    problems = verify(roles, expected)
    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    walls = " ".join(f"{result['wall_s']:.3f}" for result in roles["timed"])
    print(f"perfbench: {args.workload} seed {args.seed}: digest "
          f"{roles['timed'][0]['digest']}, wall_s per repetition: {walls}",
          file=sys.stderr)

    if args.trace:
        values = per_layer(roles, max(workloads.workers(args.workload), 1))
    else:
        values = end_to_end(roles)
    timed = roles["timed"]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(result["attempted"] for result in timed),
        "failed": sum(result["failed"] for result in timed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
