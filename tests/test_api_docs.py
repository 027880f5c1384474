"""The tools run: API doc generator coverage, hot-path profiler smoke."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _generate(output, hash_seed):
    script = os.path.join(REPO, "tools", "gen_api_docs.py")
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.path.join(REPO, "src")
    )
    result = subprocess.run(
        [sys.executable, script, "--output", str(output)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    with open(output) as handle:
        return handle.read()


def test_generator_produces_reference(tmp_path):
    # Generated into tmp_path: a test run must leave the tree clean.
    text = _generate(tmp_path / "API.md", "1")
    # Set-valued defaults print sorted, so the hash seed cannot reorder them.
    assert _generate(tmp_path / "API-other-seed.md", "2") == text
    # Every core public type appears.
    for symbol in (
        "class Simulator",
        "class Packet",
        "class SharedRegister",
        "class TrafficManager",
        "class SumeEventSwitch",
        "class EventMerger",
        "class AggregationRegisterFile",
        "class P4Program",
        "def compile_program",
        "class CountMinSketch",
        "class PifoQueue",
    ):
        assert symbol in text, f"missing {symbol!r} in API.md"
    # Every top-level package section is present.
    for package in ("repro.sim", "repro.arch", "repro.apps", "repro.lang"):
        assert f"## `{package}`" in text


def test_profile_hotpath_names_the_workload_and_the_kernel(tmp_path):
    # Own interpreter: the tool puts perf/ on sys.path and advances packet ids.
    code = (
        "import profile_hotpath as p; print(p.report("
        "p.profile_workload('chain_paced', 1, scale=0.05), 'chain_paced', 40))"
    )
    env = dict(os.environ, PYTHONPATH=f"{REPO}/tools{os.pathsep}{REPO}/src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=str(tmp_path), env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "perf workload 'chain_paced'" in result.stdout
    assert "(sorted by cumulative time, top 40 functions)" in result.stdout
    assert "(sorted by self time (tottime), top 40 functions)" in result.stdout
    assert os.path.join("sim", "kernel.py") in result.stdout


def test_profile_hotpath_lists_the_callers_of_a_pattern(tmp_path):
    pattern = r"builtins\.len\b"
    code = (
        "import profile_hotpath as p; print(p.callers("
        f"p.profile_workload('chain_paced', 1, scale=0.05), {pattern!r}, 3))"
    )
    env = dict(os.environ, PYTHONPATH=f"{REPO}/tools{os.pathsep}{REPO}/src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=str(tmp_path), env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"(callers of functions matching {pattern!r}, top 3 by calls)"
    called = [line for line in lines if line.endswith("{built-in method builtins.len}")]
    assert len(called) == 1
    # The matched function, then up to three callers, most calls first.
    start = lines.index(called[0])
    counts = [int(line.split()[0].replace(",", "")) for line in lines[start:start + 4]]
    assert counts[0] > 0 and len(counts) >= 2
    assert counts[1:] == sorted(counts[1:], reverse=True)
    assert sum(counts[1:]) <= counts[0]


def test_profile_hotpath_reports_the_pending_depth(tmp_path):
    code = (
        "import profile_hotpath as p; pending = []; "
        "p.profile_workload('chain_paced', 1, scale=0.05, pending=pending); "
        "print(p.pending_report('chain_paced', pending)); "
        "print(p.pending_report('job_storm', []))"
    )
    env = dict(os.environ, PYTHONPATH=f"{REPO}/tools{os.pathsep}{REPO}/src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=str(tmp_path), env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    chain, other = [line for line in result.stdout.splitlines() if line]
    # 3,000 sends are loaded before the first slice; the queue drains
    # as the slices advance, so the first read is also the deepest.
    assert chain.startswith("(pending events at 100 step starts: first 3,000, median ")
    assert chain.endswith(", max 3,000)")
    assert other == "(pending events: 'job_storm' has no single in-process simulator)"
