"""Tests of the benchmark's own code.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

workloads.ensure_repro_importable()

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TinyTrials(workloads.TrialsMesh32):
    """The mesh workload shrunk to a 6x6 mesh, two inputs and four trials."""

    VARIANTS = 2
    side = 6
    trials = 4


def unit_record(workload, variant=0):
    result = workload.summarise(workload.unit(variant), variant)
    return [variant, 0.01, result.digest, result.acked, result.attempted]


def test_reference_configuration_agrees():
    workload = TinyTrials(3)
    workload.setup()
    got = [unit_record(workload, v)[2] for v in range(workload.VARIANTS)]
    assert workload.reference_digests() == got


def test_digest_table_matches_the_program(tmp_path):
    sweep = workloads.SweepMesh16W2(0, scratch=tmp_path / "sweeps")
    sweep.setup()
    got = [sweep.summarise(sweep.unit(0), 0).digest]
    sweep.close()
    assert got == run.expected_digests("sweep-mesh16-w2", 0)


def test_perturbed_result_fails_digest_check():
    workload = TinyTrials(3)
    workload.setup()
    results = workload.unit(0)
    expected = [workloads.trials_digest(results)]
    perturbed = list(results)
    perturbed[1] = dataclasses.replace(perturbed[1], total_time=perturbed[1].total_time + 1)
    good = unit_record(workload)
    bad = [0, 0.01, workloads.trials_digest(perturbed), good[3], good[4]]
    assert run.check_units([good], expected) == 0
    assert run.check_units([good, bad], expected) == 1

    half = run.REF_MS / 2
    report = {
        "setup_s": 1.0, "peak_rss_mb": 50.0, "warmup": good, "units": [good, bad],
        "calib_ms": [half, half, half], "setup_loop_ms": half, "host_loop_ms": half,
    }
    result = run.aggregate([report], expected, scale=True)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    metrics = result["metrics"]
    # The failed unit's worms count as not acknowledged.
    assert metrics["acked_share"]["value"] == pytest.approx(0.5)
    # On a host twice as fast as the reference, times double.
    assert metrics["setup_s"]["value"] == pytest.approx(2.0)
    assert metrics["worms_per_s"]["value"] == pytest.approx(good[3] / 0.04)
    raw = run.aggregate([report], expected, scale=False)["metrics"]
    assert raw["setup_s"]["value"] == pytest.approx(1.0)


def test_slowdown_beside_the_program_is_not_scaled_away():
    record = [0, 0.01, "d", 10, 10]
    report = {"units": [record, record], "calib_ms": [15.0, 15.0, 15.0], "host_loop_ms": 15.0}
    assert run.unit_factors(report, True) == [1.0, 1.0]
    # The program leaves something busy that halves the loop's speed
    # beside it: per-unit loops would cancel that slowdown.
    report["calib_ms"] = [30.0, 30.0, 30.0]
    assert run.contended(report)
    assert run.unit_factors(report, True) == [1.0, 1.0]
    report["host_loop_ms"] = 30.0
    assert not run.contended(report)
    assert run.unit_factors(report, True) == [0.5, 0.5]


def test_failed_share_counts_poisoned_shard(tmp_path):
    from repro.faults import ChaosPolicy

    sweep = workloads.SweepMesh16W2(
        7, scratch=tmp_path / "sweeps", chaos=ChaosPolicy(poison=(0,))
    )
    sweep.side, sweep.trials, sweep.shard_size, sweep.workers = 4, 8, 4, 0
    sweep.setup()
    result = sweep.summarise(sweep.unit(0), 0)
    # Two configs of two 4-trial shards each; shard 0 is quarantined.
    assert result.attempted == 16 * sweep.worms_per_trial
    assert result.acked == 12 * sweep.worms_per_trial
    record = [0, 0.1, result.digest, result.acked, result.attempted]
    assert 1.0 - run.acked_share([record], [result.digest]) == pytest.approx(0.25)
    sweep.close()


def run_bench(*argv, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_bench(
        "--workload", "stream-mesh16-flash", "--seed", "0", "--seconds", "0.2", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials-mesh32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
