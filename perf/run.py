#!/usr/bin/env python3
"""The repo's performance benchmark: seven workloads, one command.

Driver contract (``BENCHMARK.json``)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs reps of one workload until ``S`` seconds have been measured and
prints one JSON object as the last line of stdout: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it is the tool a person runs::

    python perf/run.py [--seed N] [--reps 5]     # all workloads, interleaved
    python perf/run.py --trace                   # plus the per-layer table
    python perf/run.py --aa                      # two sets, same tree, compared
    python perf/run.py --update-expected --seed N

Every (workload, rep) is a fresh child interpreter, children run one
after another, and this process is the only thing generating load.
See perf/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(PERF, "out")
EXPECTED = os.path.join(PERF, "expected.json")

sys.path.insert(0, PERF)
import metrics  # noqa: E402
from workloads import percentile  # noqa: E402

#: A driver run tops its set-up samples up to this many (the slow
#: workloads fit only two reps in a run).
SETUP_SAMPLES = 5
#: No child may outlive this; the contract allows a run 180 s in all.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    # build() compiled everything once; children must not race to rewrite it.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def build() -> None:
    """Byte-compile repro and perf/ once, so every child's set-up pays
    imports from bytecode — the first child of a fresh checkout included."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perf/run.py: no repro package under {SRC}; nothing to measure")
    for path in (SRC, PERF):
        if not compileall.compile_dir(path, quiet=2):
            raise SystemExit(f"perf/run.py: byte-compiling {path} failed")
    os.makedirs(OUT, exist_ok=True)


def run_child(
    workload: str,
    seed: int,
    scale: float,
    trace: bool = False,
    setup_only: bool = False,
    pin: bool = False,
) -> Dict[str, Any]:
    """One rep in a fresh interpreter; returns the child's JSON record."""
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    argv = [
        sys.executable, os.path.join(PERF, "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--tmp", tmp, "--trace", str(int(trace)),
    ]
    if setup_only:
        argv.append("--setup-only")
    if pin:
        argv.append("--pin")
    # Its own process group, so a hung child takes its workers with it.
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the normal case: everyone already exited
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if stdout is None:
        raise ChildFailed(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Verdicts and aggregation
# ---------------------------------------------------------------------------


def expected_key(workload: str, seed: int, scale: float) -> str:
    key = f"{workload}/seed={seed}"
    return key if scale == 1.0 else f"{key}/scale={scale:g}"


def load_expected(path: str) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def judge(reps: List[Dict[str, Any]], pinned: Optional[str]) -> Dict[str, Any]:
    """attempted/failed over the reps; a wrong digest fails a whole rep.

    A seed nobody pinned is still checked: every rep of one invocation
    simulates the same input, so their digests must agree.
    """
    digests = sorted({rep["digest"] for rep in reps})
    attempted = failed = 0
    notes: List[str] = []
    for rep in reps:
        attempted += rep["attempted"]
        reasons = list(rep["problems"])
        if pinned is not None and rep["digest"] != pinned:
            reasons.append(f"sim_digest {rep['digest'][:12]} != pinned {pinned[:12]}")
        if len(digests) > 1:
            reasons.append("reps of one seed disagree on sim_digest")
        failed += rep["attempted"] if reasons else rep["failed"]
        notes.extend(reasons)
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0] if len(digests) == 1 else "mixed",
        "pinned": pinned is not None,
        "notes": sorted(set(notes)),
    }


def aggregate(
    workload: str, reps: List[Dict[str, Any]], setups: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its reps.

    In-process workloads report host-scaled time (see hostref.py), which
    leaves a few percent of noise with the odd outlier either way: the
    median rep.  The two multi-process workloads report raw wall time,
    where the host only ever slows a rep down: the best rep.
    """
    if metrics.WORKLOAD_BY_NAME[workload].in_process:
        pick, unpick, clock = statistics.median, statistics.median, "scaled_s"
    else:
        pick, unpick, clock = max, min, "wall_s"
    rates = [rep["ops"] / rep.get("ops_wall_s", rep[clock]) for rep in reps]
    waits = [rep.get("latencies_ms", [rep[clock] * 1e3]) for rep in reps]
    pooled = [ms for samples in waits for ms in samples]
    return {
        "ops_per_s": pick(rates),
        "job_p50_ms": unpick(statistics.median(samples) for samples in waits),
        "setup_s": statistics.median(child["setup_scaled_s"] for child in setups),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "job_p90_ms": percentile(pooled, 0.9),
        "latency_samples": len(pooled),
    }


def traced_layers(
    plain: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, float]:
    """The traced child's rows plus the two that need the plain reps."""
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
        rep["wall_s"] for rep in plain
    )
    layers["host.ref_s"] = statistics.median(
        rep["host_ref_s"] for rep in plain + [traced]
    )
    return layers


def save(name: str, record: Dict[str, Any]) -> str:
    """Keep a run's full child records (raw walls beside scaled ones)."""
    path = os.path.join(OUT, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


def with_units(values: Dict[str, float], names) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names
    }


# ---------------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ---------------------------------------------------------------------------


def run_driver(args, expected: Dict[str, str]) -> int:
    started = time.perf_counter()
    pinned = expected.get(expected_key(args.workload, args.seed, args.scale))
    if args.trace:
        # One plain rep, then one traced: their ratio is the tracing cost.
        plain = run_child(args.workload, args.seed, args.scale)
        traced = run_child(args.workload, args.seed, args.scale, trace=True)
        reps = [plain, traced]
        for name, value in sorted(traced["extended"].items()):
            print(f"{name:<34} {value:>14.6g} {metrics.UNITS[name]}")
        result_metrics = with_units(
            traced_layers([plain], traced), metrics.PER_LAYER_NAMES
        )
    else:
        reps = []
        extra_setups = []

        # Raw timings take the best rep, so they need one more look.
        min_reps = 2 if metrics.WORKLOAD_BY_NAME[args.workload].in_process else 3

        def enough() -> bool:
            if args.reps:
                return len(reps) >= args.reps
            measured = sum(rep["wall_s"] for rep in reps)
            return measured >= args.seconds and len(reps) >= min_reps

        while not enough():
            reps.append(run_child(args.workload, args.seed, args.scale))
        while not args.reps and len(reps) + len(extra_setups) < SETUP_SAMPLES:
            extra_setups.append(
                run_child(args.workload, args.seed, args.scale, setup_only=True)
            )
        result_metrics = with_units(
            aggregate(args.workload, reps, reps + extra_setups),
            metrics.END_TO_END_NAMES,
        )
        save(f"driver-{args.workload}-seed{args.seed}",
             {"reps": reps, "setups": extra_setups})
    verdict = judge(reps, pinned)
    for note in verdict["notes"]:
        print(f"FAILED {args.workload}: {note}")
    print(
        f"{args.workload} seed={args.seed} reps={len(reps)} "
        f"digest={verdict['digest'][:16]} "
        f"({'pinned' if verdict['pinned'] else 'unpinned: reps compared'}) "
        f"nproc={os.cpu_count()} elapsed={time.perf_counter() - started:.1f}s"
    )
    print(
        json.dumps(
            {
                "correct": verdict["failed"] == 0,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": result_metrics,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Suite mode: every workload, reps interleaved
# ---------------------------------------------------------------------------


def run_suite(args, expected: Dict[str, str], label: str) -> Dict[str, Any]:
    """``reps`` passes over all workloads; pass 1 runs each once, then
    pass 2, ... because a CPU-bound loop on a small host drifts by ~10%
    over minutes and back-to-back reps would put all of one workload in
    one weather."""
    names = metrics.WORKLOAD_NAMES
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.reps or 5):
        for name in names:
            reps[name].append(run_child(name, args.seed, args.scale))
            print(f"  pass {index + 1}: {name} {reps[name][-1]['wall_s']:.2f}s",
                  file=sys.stderr)
    traced: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        for name in names:
            traced[name] = run_child(name, args.seed, args.scale, trace=True)
    suite: Dict[str, Any] = {}
    for name in names:
        pinned = expected.get(expected_key(name, args.seed, args.scale))
        verdict = judge(reps[name] + ([traced[name]] if name in traced else []), pinned)
        values = aggregate(name, reps[name], reps[name])
        values["failed_ratio"] = verdict["failed"] / verdict["attempted"]
        entry = {"end_to_end": values, "verdict": verdict, "reps": len(reps[name])}
        if name in traced:
            entry["per_layer"] = traced_layers(reps[name], traced[name])
            entry["extended"] = traced[name]["extended"]
        suite[name] = entry
    record = {
        "label": label,
        "seed": args.seed,
        "scale": args.scale,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": suite,
    }
    record["children"] = {"reps": reps, "traced": traced}
    print_suite(record)
    print(f"saved {save(f'result-{label}-seed{args.seed}', record)}")
    return record


def print_suite(record: Dict[str, Any]) -> None:
    host = record["host"]
    print(
        f"\n== {record['label']}: seed {record['seed']}, nproc {host['nproc']}, "
        f"python {host['python']} =="
    )
    print(
        f"{'workload':<16}{'ops_per_s':>18}{'job_p50_ms':>14}{'job_p90_ms':>14}"
        f"{'setup_s':>10}{'peak_rss_mb':>13}{'failed_ratio':>14}  reps  sim_digest"
    )
    for name, entry in record["workloads"].items():
        values, verdict = entry["end_to_end"], entry["verdict"]
        op = metrics.WORKLOAD_BY_NAME[name].op
        # p90 needs >= 10 samples beyond it; only job_storm's pool has them.
        p90 = (
            f"{values['job_p90_ms']:.1f} ms"
            if values["latency_samples"] >= 100
            else "-"
        )
        print(
            f"{name:<16}{values['ops_per_s']:>11.1f} {op + '/s':<6}"
            f"{values['job_p50_ms']:>11.1f} ms{p90:>14}"
            f"{values['setup_s']:>8.3f} s{values['peak_rss_mb']:>9.1f} MiB"
            f"{values['failed_ratio']:>14.4g}  {entry['reps']:>4}  "
            f"{verdict['digest'][:12]} "
            f"{'pinned' if verdict['pinned'] else 'unpinned'}"
        )
        for note in verdict["notes"]:
            print(f"    FAILED: {note}")
    if not any("per_layer" in entry for entry in record["workloads"].values()):
        return
    names = list(record["workloads"])
    print(f"\n{'per-layer metric':<36}{'unit':<12}" + "".join(f"{n[:14]:>15}" for n in names))
    for metric in metrics.PER_LAYER:
        cells = "".join(
            f"{record['workloads'][n]['per_layer'][metric.name]:>15.6g}" for n in names
        )
        print(f"{metric.name:<36}{metric.unit:<12}{cells}")
    for home, rows in metrics.EXTENDED.items():
        if home not in record["workloads"]:
            continue
        for metric in rows:
            value = record["workloads"][home]["extended"][metric.name]
            print(f"{metric.name:<36}{metric.unit:<12}{value:>15.6g}  ({home})")


def run_aa(args, expected: Dict[str, str]) -> int:
    """Two full sets on the same tree; a breach means the *benchmark* is
    too noisy for its own bounds, whatever the code does."""
    first = run_suite(args, expected, "aa-1")
    second = run_suite(args, expected, "aa-2")
    gated = metrics.END_TO_END + (metrics.JOB_P90_MS,)
    breaches = 0
    print(f"\n{'workload':<16}{'metric':<14}{'set 1':>12}{'set 2':>12}{'diff':>9}{'bound':>8}")
    for name in first["workloads"]:
        one = first["workloads"][name]["end_to_end"]
        two = second["workloads"][name]["end_to_end"]
        for metric in gated:
            if metric.name == "job_p90_ms" and one["latency_samples"] < 100:
                continue
            diff = abs(two[metric.name] - one[metric.name]) / one[metric.name]
            breach = diff > metric.bound
            breaches += breach
            print(
                f"{name:<16}{metric.name:<14}{one[metric.name]:>12.4g}"
                f"{two[metric.name]:>12.4g}{diff:>8.1%}{metric.bound:>8.0%}"
                f"{'  BREACH' if breach else ''}"
            )
        for record in (first, second):
            if record["workloads"][name]["verdict"]["failed"]:
                breaches += 1
                print(f"{name:<16}failed operations in {record['label']}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def update_expected(args) -> int:
    """Pin this seed's digests; the only way expected.json changes."""
    expected = load_expected(EXPECTED)
    for name in metrics.WORKLOAD_NAMES:
        rep = run_child(name, args.seed, args.scale, pin=True)
        if rep["problems"] or rep["failed"] or rep["pin"] != rep["digest"]:
            raise SystemExit(f"{name}: refusing to pin a failing run: {rep}")
        expected[expected_key(name, args.seed, args.scale)] = rep["pin"]
        print(f"pinned {name} seed={args.seed}: {rep['pin'][:16]}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver mode: measure at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also (driver: instead) the per-layer rows")
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed rep count (suite default 5; driver: by --seconds)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workloads; for the smoke tests only")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets and compare them against the bounds")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--expected", default=EXPECTED,
                        help="digest file to check against (tests override it)")
    args = parser.parse_args(argv)

    build()
    if args.update_expected:
        return update_expected(args)
    expected = load_expected(args.expected)
    if args.workload:
        return run_driver(args, expected)
    if args.aa:
        return run_aa(args, expected)
    record = run_suite(args, expected, "traced" if args.trace else "run")
    return 1 if any(e["verdict"]["failed"] for e in record["workloads"].values()) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        sys.exit(f"perf/run.py: {exc}")
