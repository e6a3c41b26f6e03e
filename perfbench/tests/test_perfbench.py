"""Self-tests of the benchmark: metrics, output checks, seeding, manifest.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
import worker

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))


def _tiny_records(tmp_path, seed):
    result = worker.run_once("fig6-relock", seed, tmp_path / f"s{seed}",
                             size="tiny")
    return result, checks.load_records(tmp_path / f"s{seed}", False)


def test_flipped_predicted_key_bit_fails_the_output_check(tmp_path):
    _, records = _tiny_records(tmp_path, 3)
    checks.check_records(records)
    attack = next(record for record in records if record["kind"] == "attack")
    attack["result"]["predicted_key"][0] ^= 1
    with pytest.raises(checks.CheckError, match="kpa"):
        checks.check_records(records)


def test_another_seed_changes_the_digest(tmp_path):
    first, _ = _tiny_records(tmp_path, 3)
    second, _ = _tiny_records(tmp_path, 4)
    assert first["digest"] != second["digest"]


def test_each_workload_names_its_rationale_and_stressed_layer():
    entries = {entry["name"]: entry for entry in MANIFEST["workloads"]}
    assert set(entries) == set(workloads.WORKLOADS)
    for name, entry in entries.items():
        assert set(entry) == {"name", "why"}
        why = entry["why"]
        assert why and "\n" not in why and len(why) <= 200
        assert f"stresses {workloads.STRESSES[name]}" in why, name


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "fig6-relock", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
