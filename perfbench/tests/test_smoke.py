"""Tiny-size runs of every workload through the benchmark's command line.

Each run must pass its correctness gate and emit exactly the metrics that
BENCHMARK.json declares, each with its declared unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELDOUT_SEED])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload, seed):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert f"{name} " in proc.stdout  # printed by name in the table too


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seconds", "0.5", "--trace", "1",
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = _declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    reached = {
        "grid_learners": ["wolpertinger.knn", "neural.adam_step",
                          "dqn.train_step", "sequential.train_step",
                          "env.step_cells", "harness.greedy_rollout"],
        "oracle_sweep": ["kernels.brute_force", "baselines.brute_force_search",
                         "baselines.mrt_tdma_sum_rate",
                         "harness.write_outputs"],
        "env_rollout": ["env.reset", "radio.probe_measurements",
                        "kernels.rx_powers", "env.step.rsrq"],
    }[workload]
    for boundary in reached:
        assert values[f"{boundary}.busy_s"] > 0, boundary
    assert values["roadmap.dqn_train_step_us"] > 0


def test_reruns_of_one_seed_write_identical_outputs():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "oracle_sweep", "--seconds", "0.2",
                    "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        digests += [line.split()[1] for line in proc.stdout.splitlines()
                    if line.startswith("output_sha256 ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_declared_per_layer_metrics_fit_the_limit():
    assert len(SPEC["per_layer"]) <= 128


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "env_rollout", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
