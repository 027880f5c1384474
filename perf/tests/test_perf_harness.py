"""Smoke tests for the benchmark harness (``pytest perf/tests``).

Outside tier-1's ``testpaths`` on purpose: they spawn the workloads at
``--scale 0.05`` and take about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import metrics  # noqa: E402

SMALL = ("--seed", "1", "--scale", "0.05", "--reps", "1")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_benchmark(*args, cwd=ROOT, script=os.path.join(PERF, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(*args):
    done = run_benchmark(*args)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(result, names):
    assert list(result["metrics"]) == list(names)
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == metrics.UNITS[name]
        assert isinstance(cell["value"], (int, float))


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_end_to_end_metrics_declared_and_only_those(workload):
    result = result_of("--workload", workload, *SMALL, "--trace", "0")
    check_metrics(result, metrics.END_TO_END_NAMES)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_per_layer_metrics_declared_and_counts_repeat(workload):
    first = result_of("--workload", workload, *SMALL, "--trace", "1")
    second = result_of("--workload", workload, *SMALL, "--trace", "1")
    for result in (first, second):
        check_metrics(result, metrics.PER_LAYER_NAMES)
        assert result["correct"]
    for name in metrics.COUNT_NAMES:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_expected_digest_fails_every_operation(tmp_path):
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps({"microburst_sume/seed=1/scale=0.05": "0" * 64}))
    result = result_of(
        "--workload", "microburst_sume", *SMALL, "--trace", "0",
        "--expected", str(wrong),
    )
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0


def test_names_and_benchmark_json_agree_with_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["command"] == ["python3", "perf/run.py"]
    assert declared["paths"] == ["perf"]
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in metrics.WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    names = list(metrics.WORKLOAD_NAMES) + list(metrics.UNITS)
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in metrics.WORKLOADS)
    assert "setup_s" in metrics.END_TO_END_NAMES


def test_expected_digests_are_pinned_for_two_seeds():
    with open(os.path.join(PERF, "expected.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    for seed in (1, 2):
        for workload in metrics.WORKLOAD_NAMES:
            assert f"{workload}/seed={seed}" in pinned


def test_refuses_to_run_without_the_program(tmp_path):
    """The driver also runs the command in a directory holding only
    BENCHMARK.json and perf/: it must fail there, not print a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_benchmark(
        "--workload", "chain_paced", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perf" / "run.py"),
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
