"""Benchmark-trajectory harness: record the simulator's own speed.

Runs the kernel/switch micro-benchmarks from
``benchmarks/test_simulator_performance.py`` — bare-kernel event
throughput, end-to-end packets through a SUME switch, the flow-decision
cache, and the sharded fat-tree engine — and writes a
``BENCH_<label>.json`` snapshot so the repo accumulates a perf
trajectory over time and CI can fail on regressions.

Schema (version 1)::

    {
      "schema": 1,
      "label": "pr2",                  # trajectory point name
      "python": "3.11.7",
      "scheduler": "heap",             # kernel backend measured
      "benchmarks": {
        "kernel": {
          "rounds": 5,
          "wall_s_min": 0.0123,        # best round (robust statistic)
          "wall_s_mean": 0.0131,
          "wall_s_all": [...],         # per-round wall seconds
          "events": 20000,             # simulated events per round
          "events_per_sec": 1626016.0  # events / best wall time
        },
        "switch": {
          ... same shape ...,
          "packets": 500,
          "pkts_per_sec": 8347.0,
          "events": 7504,              # kernel events behind the packets
          "events_per_sec": 125275.0
        }
      }
    }

Regression checks (:func:`compare`) use ``wall_s_min``: on shared, noisy
hosts the best round tracks the code's true cost while mean tracks the
host's load.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import run_points
from repro.sim.kernel import Simulator

#: Events dispatched per kernel round (matches the pytest benchmark).
KERNEL_EVENTS = 20_000
#: Packets pushed through the switch per round (matches the pytest benchmark).
SWITCH_PACKETS = 500

H0_IP = 0x0A00_0001
H1_IP = 0x0A00_0002


def kernel_round() -> Tuple[float, int]:
    """One timed round of chained-timer kernel dispatch.

    Returns ``(wall_seconds, simulated_events)``.
    """
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < KERNEL_EVENTS:
            sim.call_after(1, tick)

    sim.call_at(0, tick)
    start = perf_counter()
    sim.run()
    wall = perf_counter() - start
    if count[0] != KERNEL_EVENTS:
        raise RuntimeError(f"kernel round ran {count[0]} events, expected {KERNEL_EVENTS}")
    return wall, sim.events_executed


def switch_round() -> Tuple[float, int]:
    """One timed round of packets through a SUME switch with a program.

    Returns ``(wall_seconds, simulated_events)``.  Topology build and
    program load are inside the timed region, matching the pytest
    benchmark.
    """
    from repro.apps.microburst import MicroburstDetector
    from repro.experiments.factories import make_sume_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    start = perf_counter()
    network = build_linear(make_sume_switch(), switch_count=1)
    program = MicroburstDetector(num_regs=256, flow_thresh_bytes=1 << 30)
    program.install_routes({H1_IP: 1, H0_IP: 0})
    network.switches["s0"].load_program(program)
    received: List[object] = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(SWITCH_PACKETS):
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    network.run()
    wall = perf_counter() - start
    if len(received) != SWITCH_PACKETS:
        raise RuntimeError(
            f"switch round delivered {len(received)} packets, "
            f"expected {SWITCH_PACKETS}"
        )
    return wall, network.sim.events_executed


def switch_cached_round() -> Tuple[float, int]:
    """One timed round of packets through the flow-decision cache.

    A baseline PSA switch runs the multi-table :class:`L3Router` — a
    pure, fully cacheable pipeline — so after the first packet of the
    flow records the ACL → LPM → next-hop walk, the remaining packets
    replay it.  Topology build and program load are inside the timed
    region, matching :func:`switch_round`.
    """
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    start = perf_counter()
    # The round measures the cache, so force it on regardless of the
    # ambient REPRO_FLOW_CACHE setting — and pin the flow fastpath off
    # so per-hop replay is what gets timed (switch_fastpath measures
    # the fused path).
    network = build_linear(
        make_baseline_switch(flow_cache=True, fastpath=False), switch_count=1
    )
    program = L3Router()
    program.install_host_routes({H0_IP: 0, H1_IP: 1})
    program.deny_flow(src=0x7F00_0001, src_mask=0xFFFF_FFFF, priority=5)
    network.switches["s0"].load_program(program)
    received: List[object] = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(SWITCH_PACKETS):
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    network.run()
    wall = perf_counter() - start
    if len(received) != SWITCH_PACKETS:
        raise RuntimeError(
            f"switch_cached round delivered {len(received)} packets, "
            f"expected {SWITCH_PACKETS}"
        )
    cache = network.switches["s0"].flow_cache
    if cache is None or cache.stats.hits == 0:
        raise RuntimeError("switch_cached round ran without flow-cache hits")
    return wall, network.sim.events_executed


def switch_compiled_round() -> Tuple[float, int]:
    """One timed round through the compiled pipeline specializer.

    The same baseline-PSA / :class:`L3Router` topology as
    :func:`switch_cached_round`, but with the flow-decision cache *off*
    and pipeline compilation *on* — every packet takes the exec-generated
    fused walk (inlined tables, folded actions), so this round tracks
    the specializer's throughput with no memoization in front of it.
    """
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    start = perf_counter()
    network = build_linear(
        make_baseline_switch(flow_cache=False, compile=True, fastpath=False),
        switch_count=1,
    )
    program = L3Router()
    program.install_host_routes({H0_IP: 0, H1_IP: 1})
    program.deny_flow(src=0x7F00_0001, src_mask=0xFFFF_FFFF, priority=5)
    network.switches["s0"].load_program(program)
    received: List[object] = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(SWITCH_PACKETS):
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    network.run()
    wall = perf_counter() - start
    if len(received) != SWITCH_PACKETS:
        raise RuntimeError(
            f"switch_compiled round delivered {len(received)} packets, "
            f"expected {SWITCH_PACKETS}"
        )
    switch = network.switches["s0"]
    if not switch._compiled:
        raise RuntimeError("switch_compiled round ran without compiled dispatch")
    return wall, network.sim.events_executed


def switch_fastpath_round() -> Tuple[float, int]:
    """One timed round through the end-to-end flow fastpath.

    The same baseline-PSA / :class:`L3Router` topology as
    :func:`switch_cached_round` with the flow cache *and* the flow
    fastpath on: after the first packet records the walk and the second
    builds the path entry, every delivery is **one** fused kernel event
    at the precomputed arrival time instead of the per-hop event
    cadence.  Packets are spaced wider than the end-to-end pipeline
    window (fusing requires a quiet path — continuous line-rate streams
    fall back by design), so this round tracks the fused path's
    throughput for paced flows; the identical topology keeps it directly
    comparable to ``switch_cached``.  Multi-hop fusion is covered by the
    equivalence tests and the chaos fastpath arm.
    """
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    start = perf_counter()
    network = build_linear(
        make_baseline_switch(flow_cache=True, fastpath=True), switch_count=1
    )
    for name in ("s0",):
        program = L3Router()
        program.install_host_routes({H0_IP: 0, H1_IP: 1})
        program.deny_flow(src=0x7F00_0001, src_mask=0xFFFF_FFFF, priority=5)
        network.switches[name].load_program(program)
    received: List[object] = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(SWITCH_PACKETS):
        network.sim.call_at(
            1_000 + i * 8_000_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    network.run()
    wall = perf_counter() - start
    if len(received) != SWITCH_PACKETS:
        raise RuntimeError(
            f"switch_fastpath round delivered {len(received)} packets, "
            f"expected {SWITCH_PACKETS}"
        )
    fastpath = network.switches["s0"].flow_fastpath
    if fastpath is None or fastpath.stats.fused < SWITCH_PACKETS - 2:
        raise RuntimeError(
            "switch_fastpath round ran without fused deliveries "
            f"({fastpath.stats if fastpath else 'fastpath off'})"
        )
    return wall, network.sim.events_executed


def switch_sharded_round() -> Tuple[float, int]:
    """One timed round of the conservative-parallel shard engine.

    A k=4 fat tree (20 switches, 16 hosts) under the incast workload,
    split into 2 shards.  Worker startup, window synchronization, and
    boundary serialization are all inside the timed region — this round
    tracks the *engine's* overhead trajectory, not raw switch speed.
    Falls back to inline workers when run inside a daemonic pool
    process (``bench --workers N``), which cannot fork children.
    """
    import multiprocessing

    from repro.experiments.shard_exp import (
        ShardScenario,
        expected_packets,
        run_sharded,
    )

    scenario = ShardScenario(topology="fattree", k=4, waves=1, packets_per_sender=2)
    mode = "inline" if multiprocessing.current_process().daemon else "process"
    start = perf_counter()
    result = run_sharded(scenario, shards=2, mode=mode)
    wall = perf_counter() - start
    expected = expected_packets(scenario)
    if result.total_received() != expected:
        raise RuntimeError(
            f"switch_sharded round delivered {result.total_received()} "
            f"packets, expected {expected}"
        )
    return wall, result.stats.total("events_executed")


#: Named benchmark rounds the harness (and the parallel fan-out) runs.
BENCH_ROUNDS = {
    "kernel": kernel_round,
    "switch": switch_round,
    "switch_cached": switch_cached_round,
    "switch_compiled": switch_compiled_round,
    "switch_fastpath": switch_fastpath_round,
    "switch_sharded": switch_sharded_round,
}

#: Iterations of the host-speed spin loop (fixed across snapshots so
#: scores recorded on different hosts are directly comparable).
CALIBRATION_ITERS = 1_000_000


def host_speed_score(rounds: int = 3) -> Dict:
    """A fixed spin-loop calibration probe of this host's speed.

    Pure-Python integer loop, no allocation, no I/O: the score (loop
    iterations per second, best of ``rounds``) tracks single-core
    interpreter throughput — exactly what every other benchmark round
    is bounded by.  Recorded in the snapshot so ``--compare`` can tell
    "the code got slower" from "the host got slower" (the pr7-era
    "degraded 1-core host" ambiguity).
    """
    best = float("inf")
    for _ in range(rounds):
        acc = 0
        start = perf_counter()
        for i in range(CALIBRATION_ITERS):
            acc += i & 7
        wall = perf_counter() - start
        if acc != (CALIBRATION_ITERS // 8) * 28:  # keep the loop honest
            raise RuntimeError("calibration loop was optimized away")
        best = min(best, wall)
    return {
        "iters": CALIBRATION_ITERS,
        "rounds": rounds,
        "wall_s_min": best,
        "score": CALIBRATION_ITERS / best,
    }


def host_speed_ratio(current: Dict, baseline: Dict) -> Optional[float]:
    """current host score / baseline host score, None when either
    snapshot predates the calibration probe."""
    cur = current.get("host_speed", {}).get("score")
    base = baseline.get("host_speed", {}).get("score")
    if not cur or not base:
        return None
    return cur / base


def sharded_showcase(k: int = 8, shards: int = 8, mode: str = "process") -> Dict:
    """The ISSUE-6 acceptance run: k=8 fat tree, serial vs 8 shards.

    Returns an honest record — wall times, speedup, host core count,
    and the fingerprint verdict — for the snapshot's top-level
    ``"sharded"`` key (``repro bench --sharded-showcase``).  Raises when
    the sharded fingerprint diverges from the serial one; a fingerprint
    mismatch is a correctness bug, not a slow round.  Speedup is
    reported, not gated: it is hardware-dependent (``host_cores``
    records how many cores the run actually had).
    """
    from repro.experiments.parallel import default_workers
    from repro.experiments.shard_exp import ShardScenario, run_serial, run_sharded

    scenario = ShardScenario(topology="fattree", k=k, waves=1, packets_per_sender=2)
    serial = run_serial(scenario)
    sharded = run_sharded(scenario, shards=shards, mode=mode)
    if serial.fingerprint != sharded.fingerprint:
        raise RuntimeError(
            f"sharded fingerprint diverged from serial on fattree-k{k} "
            f"({sharded.digest[:16]} vs {serial.digest[:16]})"
        )
    return {
        "topology": f"fattree-k{k}",
        "shards": shards,
        "mode": mode,
        "host_cores": default_workers(),
        "packets": sharded.total_received(),
        "serial_wall_s": serial.wall_s,
        "sharded_wall_s": sharded.wall_s,
        "speedup": serial.wall_s / sharded.wall_s if sharded.wall_s else 0.0,
        "fingerprint_match": True,
        "digest": sharded.digest,
        "windows": sharded.stats.windows,
        "boundary_packets": sharded.stats.total("boundary_tx"),
        "stall_windows": sharded.stats.total("stall_windows"),
    }


def showcase_rows(entry: Dict) -> List[str]:
    """Human-readable rows for a :func:`sharded_showcase` record."""
    return [
        f"{entry['topology']} × {entry['shards']} shards ({entry['mode']}, "
        f"{entry['host_cores']} core(s) available)",
        f"serial  {entry['serial_wall_s'] * 1e3:8.1f} ms",
        f"sharded {entry['sharded_wall_s'] * 1e3:8.1f} ms  "
        f"(speedup {entry['speedup']:.2f}x)",
        f"fingerprint match: {entry['fingerprint_match']} "
        f"({entry['packets']} packets, digest {entry['digest'][:16]}…)",
        f"{entry['windows']} window(s), {entry['boundary_packets']} boundary "
        f"packet(s), {entry['stall_windows']} stall(s)",
    ]


def run_round(name: str) -> Tuple[float, int]:
    """One timed round of a named benchmark: ``(wall_seconds, events)``.

    The single choke point every consumer goes through — the sweep
    harness (:func:`collect`), the parallel fan-out, and the scenario
    registry (``repro submit bench/<name>``).
    """
    try:
        fn = BENCH_ROUNDS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench round {name!r}; pick from {sorted(BENCH_ROUNDS)}"
        ) from None
    return fn()


def _run_named_round(name: str) -> Tuple[float, int]:
    """Picklable worker entry for :func:`repro.experiments.parallel.run_points`."""
    return run_round(name)


def _snapshot(
    label: str, benchmarks: Dict[str, Dict], host_speed: Optional[Dict] = None
) -> Dict:
    """Assemble the schema-1 snapshot dict around measured benchmarks."""
    data = {
        "schema": 1,
        "label": label,
        "python": sys.version.split()[0],
        "scheduler": "heap",
        "benchmarks": benchmarks,
    }
    if host_speed is not None:
        data["host_speed"] = host_speed
    return data


def _load_progress(progress_path: Optional[str], label: str, rounds: int) -> Dict[str, Dict]:
    """Benchmarks already recorded by an interrupted :func:`collect`.

    A progress file is only trusted when its label, scheduler backend,
    and per-benchmark round count match the current invocation — a
    mismatched file is ignored, not an error, so stale progress can
    never poison a sweep.
    """
    if not progress_path or not os.path.exists(progress_path):
        return {}
    try:
        data = read_snapshot(progress_path)
    except (OSError, ValueError):
        return {}
    if data.get("label") != label:
        return {}
    if data.get("scheduler") != "heap":
        return {}
    return {
        name: entry
        for name, entry in data.get("benchmarks", {}).items()
        if name in BENCH_ROUNDS and entry.get("rounds") == rounds
    }


def collect(
    label: str,
    rounds: int = 5,
    workers: int = 1,
    progress_path: Optional[str] = None,
) -> Dict:
    """Run every benchmark ``rounds`` times and build the snapshot dict.

    ``workers > 1`` fans rounds across processes via the parallel sweep
    runner — useful for many rounds on idle multi-core hosts; keep
    ``workers=1`` for timing fidelity on busy or single-core machines.

    ``progress_path`` makes long sweeps resumable: the partial snapshot
    is rewritten there after every completed benchmark, and benchmarks
    already present in a matching progress file are skipped on the next
    run (``repro bench --resume PATH``).
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    host_speed = host_speed_score()
    benchmarks: Dict[str, Dict] = _load_progress(progress_path, label, rounds)
    for name in sorted(BENCH_ROUNDS):
        if name in benchmarks:
            continue  # recorded before the interruption
        outcomes = run_points(_run_named_round, [name] * rounds, workers=workers)
        walls = [wall for wall, _events in outcomes]
        events = outcomes[0][1]
        best = min(walls)
        entry: Dict = {
            "rounds": rounds,
            "wall_s_min": best,
            "wall_s_mean": sum(walls) / len(walls),
            "wall_s_all": walls,
            "events": events,
            "events_per_sec": events / best,
        }
        if name in ("switch", "switch_cached", "switch_compiled", "switch_fastpath"):
            entry["packets"] = SWITCH_PACKETS
            entry["pkts_per_sec"] = SWITCH_PACKETS / best
        benchmarks[name] = entry
        if progress_path:
            write_snapshot(_snapshot(label, benchmarks, host_speed), progress_path)
    return _snapshot(label, benchmarks, host_speed)


def write_snapshot(data: Dict, path: str) -> None:
    """Write a snapshot as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path: str) -> Dict:
    """Read a snapshot written by :func:`write_snapshot`."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != 1:
        raise ValueError(f"{path}: unsupported BENCH schema {data.get('schema')!r}")
    return data


def compare(
    baseline: Dict,
    current: Dict,
    max_regression: float = 0.25,
    host_normalize: bool = False,
) -> List[str]:
    """Regressions of ``current`` against ``baseline``.

    Returns one message per benchmark whose best wall time regressed by
    more than ``max_regression`` (0.25 == 25% slower); empty list means
    the gate passes.  Benchmarks present in only one snapshot are
    ignored — the trajectory may gain benchmarks over time.

    With ``host_normalize``, wall times are first corrected by the
    snapshots' spin-loop calibration scores (:func:`host_speed_ratio`):
    a run on a host measuring 0.8× the baseline host's speed has its
    walls deflated by 0.8 before gating, so "the runner was slow today"
    stops tripping the gate while genuine code regressions still do.
    Messages then report both the raw and the normalized comparison.
    Snapshots without a calibration score fall back to the raw gate.
    """
    problems: List[str] = []
    base_marks = baseline.get("benchmarks", {})
    cur_marks = current.get("benchmarks", {})
    ratio = host_speed_ratio(current, baseline) if host_normalize else None
    for name in sorted(set(base_marks) & set(cur_marks)):
        base = base_marks[name]["wall_s_min"]
        cur = cur_marks[name]["wall_s_min"]
        gated = cur * ratio if ratio is not None else cur
        allowed = base * (1.0 + max_regression)
        if gated > allowed:
            if ratio is not None:
                problems.append(
                    f"{name}: {cur:.4f}s raw / {gated:.4f}s host-normalized "
                    f"(×{ratio:.2f}) vs baseline {base:.4f}s "
                    f"({gated / base:.2f}x normalized, "
                    f"allowed {1.0 + max_regression:.2f}x)"
                )
            else:
                problems.append(
                    f"{name}: {cur:.4f}s vs baseline {base:.4f}s "
                    f"({cur / base:.2f}x, allowed {1.0 + max_regression:.2f}x)"
                )
    return problems


def expand_baselines(patterns: List[str], exclude: str = "") -> List[str]:
    """Expand ``--compare`` glob patterns into snapshot paths.

    Keeps the workflow self-maintaining: a new ``BENCH_prN.json``
    snapshot joins the gate without editing CI.  Non-glob entries pass
    through untouched (a missing file should fail loudly downstream,
    not vanish); ``exclude`` drops the snapshot being written right now
    so a run never gates against itself.  Order-preserving, de-duped.
    """
    import glob as globlib

    paths: List[str] = []
    for pattern in patterns:
        matches = sorted(globlib.glob(pattern))
        for path in matches or [pattern]:
            if path != exclude and path not in paths:
                paths.append(path)
    return paths


def round_stats(entry: Dict) -> Tuple[float, float, int]:
    """``(stddev_s, cov, rounds)`` of one benchmark entry's rounds.

    Derived from ``wall_s_all`` so every schema-1 snapshot — including
    ones recorded before these statistics were reported — yields them;
    an entry without per-round walls reports zeros and its declared
    round count.
    """
    walls = entry.get("wall_s_all") or []
    rounds = entry.get("rounds", len(walls))
    if len(walls) < 2:
        return 0.0, 0.0, rounds
    mean = sum(walls) / len(walls)
    var = sum((w - mean) ** 2 for w in walls) / (len(walls) - 1)
    std = var**0.5
    return std, (std / mean if mean else 0.0), rounds


def missing_round_warnings(
    current: Dict, baselines: List[Tuple[str, Dict]]
) -> List[str]:
    """One warning per baseline lacking a benchmark the current snapshot
    has.  Old snapshots predate newer rounds (pr-era files have no
    ``switch_compiled``); the gate ignores them, but the step summary
    should say so rather than silently shrinking coverage."""
    cur_names = set(current.get("benchmarks", {}))
    warnings = []
    for label, baseline in baselines:
        missing = sorted(cur_names - set(baseline.get("benchmarks", {})))
        if missing:
            warnings.append(
                f"⚠ baseline `{label}` lacks round(s) {', '.join(missing)}; "
                "those benchmarks are not gated against it."
            )
    return warnings


def missing_round_failures(
    current: Dict, baselines: List[Tuple[str, Dict]]
) -> List[str]:
    """Benchmarks the current snapshot has but **no** baseline covers.

    A round missing from *one* old baseline is expected drift and stays
    a warning; a round missing from *every* baseline means the gate is
    not checking it at all — a silently ungated benchmark.  CI must
    fail on those (``repro bench --compare`` exits nonzero), because
    the fix is one command: re-record a baseline that includes the
    round.  Returns one message per fully-ungated benchmark; empty when
    there are no baselines (nothing was claimed to be gated) or every
    current round is covered somewhere."""
    if not baselines:
        return []
    cur_names = set(current.get("benchmarks", {}))
    covered: set = set()
    for _label, baseline in baselines:
        covered |= set(baseline.get("benchmarks", {}))
    return [
        f"✗ round `{name}` is in the current snapshot but in none of the "
        f"baselines ({', '.join(label for label, _data in baselines)}); "
        "the regression gate never sees it — re-record a baseline that "
        "includes it."
        for name in sorted(cur_names - covered)
    ]


def skipped_round_notes(
    current: Dict, baselines: List[Tuple[str, Dict]]
) -> List[str]:
    """Rounds a baseline has but the **current** snapshot lacks.

    The delta table iterates the current snapshot's benchmarks, so a
    round that exists only in a baseline — say the current run was
    resumed from a partial progress file, or a benchmark was renamed —
    would silently vanish from the summary.  These notes make that
    coverage gap explicit instead; one note per baseline with skipped
    rounds, naming them."""
    cur_names = set(current.get("benchmarks", {}))
    notes = []
    for label, baseline in baselines:
        skipped = sorted(set(baseline.get("benchmarks", {})) - cur_names)
        if skipped:
            notes.append(
                f"⚠ baseline `{label}` has round(s) {', '.join(skipped)} "
                "that the current snapshot did not run; they are absent "
                "from the table above, not compared."
            )
    return notes


def delta_markdown(
    current: Dict,
    baselines: List[Tuple[str, Dict]],
    max_regression: float = 0.25,
    normalize: bool = False,
) -> List[str]:
    """A per-scenario delta table in GitHub-flavored markdown.

    One row per benchmark — best/mean wall, round stddev and coefficient
    of variation, round count — plus one column per baseline snapshot;
    each baseline cell is the best-wall-time delta vs that baseline
    (positive = slower).  With ``normalize``, cells show the raw delta
    *and* the host-speed-normalized delta (``raw / norm``) and the ⚠
    gate flag follows the normalized number — matching what
    :func:`compare` gates on.  Baselines lacking a benchmark get ``n/a``
    cells and a trailing warning line instead of failing the render;
    rounds only a baseline has are listed below the table.  Written
    into ``$GITHUB_STEP_SUMMARY`` by the CI benchmark job.
    """
    lines = [
        f"### Benchmark deltas — label `{current['label']}`, "
        f"scheduler `{current['scheduler']}`, python {current['python']}",
        "",
        "| benchmark | best | mean | stddev | CoV | rounds | "
        + " | ".join(label for label, _data in baselines)
        + " |",
        "|---|---|---|---|---|---|" + "---|" * len(baselines),
    ]
    cur_marks = current.get("benchmarks", {})
    ratios = {
        label: (host_speed_ratio(current, baseline) if normalize else None)
        for label, baseline in baselines
    }
    for name in sorted(cur_marks):
        entry = cur_marks[name]
        cur = entry["wall_s_min"]
        std, cov, rounds = round_stats(entry)
        cells = []
        for label, baseline in baselines:
            base_entry = baseline.get("benchmarks", {}).get(name)
            if base_entry is None:
                cells.append("n/a")
                continue
            base = base_entry["wall_s_min"]
            delta = cur / base - 1.0
            ratio = ratios[label]
            if ratio is not None:
                norm_delta = cur * ratio / base - 1.0
                flag = " ⚠" if norm_delta > max_regression else ""
                cells.append(f"{delta:+.1%} / {norm_delta:+.1%}{flag}")
            else:
                flag = " ⚠" if delta > max_regression else ""
                cells.append(f"{delta:+.1%}{flag}")
        lines.append(
            f"| {name} | {cur * 1e3:.2f} ms | "
            f"{entry['wall_s_mean'] * 1e3:.2f} ms | "
            f"{std * 1e3:.2f} ms | {cov:.1%} | {rounds} | "
            + " | ".join(cells)
            + " |"
        )
    lines.append("")
    if normalize:
        lines.append(
            f"Gate: ≤ {max_regression:.0%} regression vs every baseline "
            "(cells are raw / host-speed-normalized deltas; positive is "
            "slower, ⚠ means the **normalized** delta exceeds the gate)."
        )
    else:
        lines.append(
            f"Gate: ≤ {max_regression:.0%} regression vs every baseline "
            "(positive deltas are slower; ⚠ exceeds the gate)."
        )
    speed_notes = []
    for label, baseline in baselines:
        ratio = host_speed_ratio(current, baseline)
        if ratio is not None:
            speed_notes.append(f"{label}: ×{ratio:.2f}")
    if speed_notes:
        lines.append(
            "Host-speed ratio (this host's spin-loop score / baseline's; "
            "< 1 means this host is slower, so positive deltas may be the "
            "host, not the code): " + ", ".join(speed_notes) + "."
        )
    warnings = missing_round_warnings(current, baselines)
    skipped = skipped_round_notes(current, baselines)
    if warnings or skipped:
        lines.append("")
        lines.extend(warnings)
        lines.extend(skipped)
    return lines


def summary_rows(data: Dict) -> List[str]:
    """Human-readable rows for one snapshot (CLI output)."""
    rows = [
        f"label={data['label']} scheduler={data['scheduler']} "
        f"python={data['python']}"
    ]
    host_speed = data.get("host_speed")
    if host_speed:
        rows.append(
            f"host_speed      score={host_speed['score']:,.0f} spin-iters/s "
            f"(best of {host_speed['rounds']}, {host_speed['iters']:,} iters)"
        )
    for name, entry in sorted(data["benchmarks"].items()):
        extras = ""
        if "pkts_per_sec" in entry:
            extras = f"  {entry['pkts_per_sec']:>12,.0f} pkts/s"
        std, cov, rounds = round_stats(entry)
        rows.append(
            f"{name:<15} best={entry['wall_s_min'] * 1e3:8.2f}ms "
            f"mean={entry['wall_s_mean'] * 1e3:8.2f}ms "
            f"±{std * 1e3:6.2f}ms (CoV {cov:5.1%}, n={rounds}) "
            f"{entry['events_per_sec']:>12,.0f} ev/s{extras}"
        )
    return rows


def _register_scenarios() -> None:
    from repro.scenarios import ScenarioSpec, register

    for name in sorted(BENCH_ROUNDS):
        register(ScenarioSpec(
            name=f"bench/{name}",
            runner="repro.experiments.bench:run_round",
            params={"name": name},
            app="bench",
            tags=("bench",),
            summary=f"one timed round of the {name} benchmark",
        ))


_register_scenarios()
