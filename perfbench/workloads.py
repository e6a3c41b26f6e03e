"""Scenario definitions of the benchmark workloads.

Each workload is one declarative scenario run through the public
``Scenario`` -> ``Runner`` -> ``ResultsStore`` path (or
``repro.api.coevo.run_coevo`` for ``coevo-pool``).  The benchmark's
``--seed`` replaces the scenario's master seed, so one seed always yields
the same designs, locks and attack streams.

Why these four: they split the end-to-end time between different layers,
so a change to one layer moves one workload and leaves the others flat.

* ``fig6-relock`` -- the paper's Fig. 6 shape; the SnapShot relocking loop
  (``TrainingSetBuilder.build``: relock, design copy, locality extraction)
  is most of the run.
* ``automl-search`` -- few relock rounds and a wide deterministic auto-ML
  roster, so ``AutoMLClassifier.fit`` is most of the run and relocking is
  a small share.
* ``metric-sweeps`` -- metric jobs only on full-size designs: one lock per
  job and no relocking; simulation sweeps and the locking metrics dominate.
* ``coevo-pool`` -- many tiny co-evolution jobs on a one-worker process
  pool, the only workload where runner, store, backend and coevo overhead
  is visible.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

#: The seed whose record digests are committed in ``digests.json``.
DEFAULT_SEED = 1

#: Run sizes: ``full`` is what the benchmark measures, ``tiny`` is a
#: seconds-long variant of the same shape for the self-tests.
SIZES = ("full", "tiny")

_FIG6 = {
    "name": "bench-fig6-relock",
    "benchmarks": ["MD5", "FIR", "SHA256"],
    "lockers": [
        {"algorithm": "assure", "key_budget_fraction": 0.75},
        {"algorithm": "era", "key_budget_fraction": 0.75},
    ],
    "attacks": [
        {"name": "snapshot", "rounds": 20, "time_budget": 2.0,
         "feature_set": "pair", "functional_vectors": 64},
    ],
    "samples": 1,
    "scale": 0.5,
}

_AUTOML = {
    "name": "bench-automl-search",
    "benchmarks": ["MD5", "SHA256"],
    "lockers": [
        {"algorithm": "assure", "key_budget_fraction": 0.75},
        {"algorithm": "era", "key_budget_fraction": 0.75},
    ],
    "attacks": [
        {"name": "snapshot", "rounds": 4, "time_budget": 12.0,
         "feature_set": "pair"},
    ],
    "samples": 1,
    "scale": 0.3,
}

_METRICS = {
    "name": "bench-metric-sweeps",
    "benchmarks": ["MD5", "SHA256", "FIR", "I2C_SL"],
    "lockers": [
        {"algorithm": "assure", "key_budget_fraction": 0.75},
        {"algorithm": "era", "key_budget_fraction": 0.75},
    ],
    "attacks": [],
    "metrics": [
        {"name": "avalanche", "options": {"vectors": 1024}},
        {"name": "corruption", "options": {"vectors": 2048,
                                           "wrong_keys": 64}},
        {"name": "key-sensitivity", "options": {"vectors": 2048}},
    ],
    "samples": 1,
    "scale": 1.0,
}

_COEVO = {
    "name": "bench-coevo-pool",
    "benchmarks": ["SASC", "I2C_SL"],
    "lockers": [{"algorithm": "era", "key_budget_fraction": 0.75}],
    "attacks": [
        {"name": "majority", "rounds": 5},
        {"name": "oracle-budget", "rounds": 5,
         "options": {"oracle_queries": 32, "vectors": 8}},
    ],
    "samples": 2,
    "scale": 0.3,
    # A job's cost follows its locker and key width, so the genomes one
    # seed evolves set the run's cost.  A wide random first generation, two
    # lockers of similar cost (ERA jobs are about 25% cheaper) and a narrow
    # key-budget range keep that swing small.
    "coevo": {
        "generations": 2,
        "population": 9,
        "elites": 1,
        "algorithms": ["assure", "multi-round"],
        "fraction_min": 0.6,
        "fraction_max": 0.8,
        "option_space": {"mode": ["serial", "random"]},
        "avalanche_vectors": 8,
    },
}

#: ``name -> (scenario dict, pool workers)``; 0 runs the serial backend.
#: ``coevo-pool`` uses one worker: the pool's dispatch, IPC and store costs
#: are all there, and a second busy worker would fill both cores of a
#: two-core host, so its timings would follow the host's other load.
WORKLOADS: Dict[str, tuple] = {
    "fig6-relock": (_FIG6, 0),
    "automl-search": (_AUTOML, 0),
    "metric-sweeps": (_METRICS, 0),
    "coevo-pool": (_COEVO, 1),
}

#: The layer each workload was chosen to stress, named as in the per-layer
#: metrics; ``BENCHMARK.json`` repeats it in the workload's ``why``.
STRESSES = {
    "fig6-relock": "attacks.training_set",
    "automl-search": "ml.fit",
    "metric-sweeps": "sim and locking.metrics",
    "coevo-pool": "api runner, store and backend",
}

#: Per-workload overrides that shrink a run to a few seconds while keeping
#: its shape (same layers, same job kinds).
_TINY = {
    "fig6-relock": {"benchmarks": ["FIR"], "samples": 1, "scale": 0.2,
                    "attacks": [{"name": "snapshot", "rounds": 4,
                                 "time_budget": 1.0, "feature_set": "pair",
                                 "functional_vectors": 16}]},
    "automl-search": {"benchmarks": ["MD5"], "samples": 1, "scale": 0.2,
                      "attacks": [{"name": "snapshot", "rounds": 3,
                                   "time_budget": 3.0,
                                   "feature_set": "pair"}]},
    "metric-sweeps": {"benchmarks": ["I2C_SL"], "samples": 1, "scale": 0.3,
                      "metrics": [
                          {"name": "avalanche", "options": {"vectors": 32}},
                          {"name": "corruption",
                           "options": {"vectors": 64, "wrong_keys": 4}},
                          {"name": "key-sensitivity",
                           "options": {"vectors": 64}}]},
    "coevo-pool": {"benchmarks": ["SASC"], "samples": 1, "scale": 0.15,
                   "attacks": [{"name": "majority", "rounds": 2}],
                   "coevo": dict(_COEVO["coevo"], generations=2,
                                 population=2)},
}


def scenario_dict(workload: str, seed: int, size: str = "full") -> Dict:
    """The scenario of ``workload`` with ``seed`` as its master seed.

    Raises:
        KeyError: for an unknown workload name.
        ValueError: for an unknown size.
    """
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    data = copy.deepcopy(WORKLOADS[workload][0])
    if size == "tiny":
        data.update(copy.deepcopy(_TINY[workload]))
    data["seed"] = int(seed)
    return data


def workers(workload: str) -> int:
    """Process-pool workers of the timed run (0 = serial backend)."""
    return WORKLOADS[workload][1]


def is_coevo(workload: str) -> bool:
    """True when the workload runs through ``run_coevo``."""
    return "coevo" in WORKLOADS[workload][0]


def committed_digest(digests: Dict, workload: str, seed: int,
                     size: str) -> Optional[str]:
    """The committed digest a run must reproduce, if any applies."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return digests.get(workload)
