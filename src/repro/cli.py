"""Command-line experiment runner.

Regenerates the paper's tables, figures, and claims without pytest::

    python -m repro.cli list            # available experiments
    python -m repro.cli table3          # one experiment
    python -m repro.cli all             # everything (a few minutes)

Each experiment prints the same rows the benchmark suite persists under
``benchmarks/reports/``.

Two observability subcommands instrument an experiment's event buses
(:mod:`repro.obs`) instead of printing paper rows::

    python -m repro.cli events-stats                   # counters + latency
    python -m repro.cli events-stats --source catalog
    python -m repro.cli events-trace --out events.jsonl --limit 5

Long runs checkpoint mid-flight and resume in a fresh process::

    python -m repro.cli checkpoint --ckpt mb.ckpt --at-ps 10000000000
    python -m repro.cli resume --ckpt mb.ckpt --info
    python -m repro.cli resume --ckpt mb.ckpt

Datacenter-scale fabrics run sharded across worker processes
(:mod:`repro.sim.shard`), with a fingerprint check against the
single-process run::

    python -m repro.cli shard --topology fattree --k 4 --shards 4
    python -m repro.cli shard --shards 2 --mode process --compare-serial

The fault-injection grid (:mod:`repro.faults`) runs seeded chaos over
the failure-handling applications and exits nonzero on any invariant
violation; ``--forked`` amortizes scenario builds through
``Simulator.fork()`` with byte-identical verdicts::

    python -m repro.cli chaos --plan linkflap --app frr --seed 7
    python -m repro.cli chaos --seed-sweep 25 --out verdicts.jsonl
    python -m repro.cli chaos --forked --seed 7

Every experiment is also a registered :class:`repro.scenarios.ScenarioSpec`,
runnable through the multi-tenant job service (:mod:`repro.serve`)::

    python -m repro.cli scenarios                  # the catalog
    python -m repro.cli submit microburst/cms      # private in-process service
    python -m repro.cli serve --socket /tmp/repro.sock &
    python -m repro.cli submit chaos/frr --socket /tmp/repro.sock

The search harness (:mod:`repro.search`) sweeps/optimizes any
registered scenario's declared knobs and writes a deterministic
``SEARCH_<label>.json`` artifact (see docs/SEARCH.md)::

    python -m repro.cli search --scenario aqm/fred --objective fairness \
        --domain blaster_gbps=range:4:9:5 --strategy evolve --budget 24
    python -m repro.cli search --report SEARCH_local.json
    python -m repro.cli search --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List


def _cannot_read(path: str, exc: Exception) -> int:
    """An input file that does not read: one line on stderr, exit 2."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"repro: cannot read {path}: {reason}", file=sys.stderr)
    return 2


def _print(title: str, rows: List[str]) -> None:
    print(f"\n{title}")
    print("=" * len(title))
    for row in rows:
        print(row)


def run_table1() -> None:
    """Table 1: event catalog + live demonstration."""
    from repro.arch.events import EventType
    from repro.experiments.events_exp import run_catalog_demo, support_matrix

    matrix = support_matrix()
    names = [row["architecture"] for row in matrix]
    rows = [f"{'event':<26}" + "".join(f"{n:>22}" for n in names)]
    for kind in EventType:
        rows.append(
            f"{kind.value:<26}"
            + "".join(f"{row[kind.value]:>22}" for row in matrix)
        )
    _print("Table 1: event support by architecture", rows)
    result = run_catalog_demo()
    _print("Table 1: live demonstration", result.summary_rows())


def run_table2() -> None:
    """Table 2: one live run per application class."""
    from repro.experiments.table2_exp import build_table2

    rows = build_table2()
    _print("Table 2: application classes", [row.summary_row() for row in rows])


def run_table3() -> None:
    """Table 3: FPGA cost of event support."""
    from repro.resources import table3_rows

    rows = [
        f"{row['resource']:<16} paper={row['paper_percent_increase']:>5.1f}% "
        f"model={row['measured_percent_increase']:>5.2f}%"
        for row in table3_rows()
    ]
    _print("Table 3: cost of event support (Virtex-7)", rows)


def run_figures() -> None:
    """Figures 1, 2, 4: the three architectures under identical traffic."""
    from repro.experiments.psa_fig_exp import run_architecture

    rows = [
        run_architecture(arch).summary_row()
        for arch in ("baseline", "logical", "sume")
    ]
    _print("Figures 1/2/4: architecture comparison", rows)


def run_fig3() -> None:
    """Figure 3 & §4: aggregation registers and staleness sweeps."""
    from repro.experiments.staleness_exp import (
        run_naive_single_array,
        sweep_overspeed,
    )

    rows = [result.summary_row() for result in sweep_overspeed()]
    rows.append(run_naive_single_array().summary_row())
    _print("Figure 3 / §4: aggregation + staleness", rows)


def run_microburst() -> None:
    """§2: microburst detection, event-driven vs Snappy."""
    from repro.experiments.microburst_exp import (
        run_event_driven,
        run_snappy_baseline,
        state_reduction_factor,
    )

    event = run_event_driven()
    snappy = run_snappy_baseline()
    _print(
        "§2: microburst detection",
        [
            event.summary_row(),
            snappy.summary_row(),
            f"state reduction: {state_reduction_factor(event, snappy):.2f}x",
        ],
    )


#: The §3/§5 application scenarios, in the paper's presentation order
#: (the registry's catalog order groups by module instead).
APPLICATION_SCENARIOS = (
    "failover/frr",
    "failover/control-plane",
    "liveness/probe",
    "load-balance/ecmp",
    "load-balance/hula",
    "aqm/drop-tail",
    "aqm/fred",
    "incast/tail-drop",
    "incast/ndp",
    "policing/timer",
    "flow-rate/window",
    "flow-rate/ewma",
    "netcache/timers",
    "netcache/no-timers",
    "int/aggregate",
    "scheduling/wfq",
    "ecn/multi-bit",
    "ecn/single-bit",
    "migration/swing",
    "migration/naive",
)


def run_applications() -> None:
    """§3/§5 applications: one line per experiment."""
    from repro import scenarios

    rows = [scenarios.run(name).summary_row() for name in APPLICATION_SCENARIOS]
    _print("§3/§5 applications", rows)


def run_cms() -> None:
    """§1: CMS reset — timer vs control plane."""
    from repro.experiments.cms_exp import run_cms_reset

    rows = [run_cms_reset(mode).summary_row() for mode in ("timer", "control", "none")]
    _print("§1: CMS periodic reset", rows)


def run_emulation() -> None:
    """§6: native events vs Tofino-style emulation."""
    from repro.experiments.emulation_exp import sweep_event_rate

    results = sweep_event_rate()
    rows = []
    for arch in ("sume", "tofino-emulated"):
        rows.extend(r.summary_row() for r in results[arch])
    _print("§6: emulation ablation", rows)


def run_future_work() -> None:
    """§4/§7 future-work questions, quantified."""
    from repro.experiments.staleness_exp import sweep_drain_policy
    from repro.state.consistency import run_contention
    from repro.state.replication import run_multipipe

    rows = [
        f"{policy:<8} {result.staleness.row()}"
        for policy, result in zip(
            ("fifo", "largest", "lifo"), sweep_drain_policy()
        )
    ]
    _print("§4 future work: drain policies", rows)
    rows = [run_contention(lat).summary_row() for lat in (0, 1, 2, 4, 8)]
    _print("§7 future work: consistency (lost updates)", rows)
    rows = [
        run_multipipe(sync_period_cycles=p).summary_row()
        for p in (8, 64, 512, None)
    ]
    _print("§4: multi-pipeline state sync", rows)


# ----------------------------------------------------------------------
# EventBus observability subcommands
# ----------------------------------------------------------------------
def _run_event_source(source: str) -> Dict[str, List[str]]:
    """Run one event-producing experiment under the current observers.

    Sources are the scenarios registered with the ``source`` tag
    (:mod:`repro.scenarios`); an unknown name exits with the registered
    list rather than a traceback.  Returns extra titled row blocks some
    sources contribute beyond the bus-level counters (e.g. the shard
    source's per-shard stats).
    """
    from repro import scenarios

    try:
        spec = scenarios.get(source, tag="source")
    except scenarios.UnknownScenario as exc:
        listing = "\n  ".join(exc.registered)
        raise SystemExit(
            f"error: unknown event source {source!r}; sources:\n  {listing}"
        ) from None
    result = spec.run()
    if isinstance(result, dict) and all(
        isinstance(rows, list) and all(isinstance(row, str) for row in rows)
        for rows in result.values()
    ):
        return result
    return {}


def run_events_stats(source: str = "microburst") -> None:
    """EventBus counters and dispatch-latency histograms for one experiment."""
    from repro.obs import DispatchLatencyHistogram, EventCounters, observing
    from repro.pisa.fastpath import FlowFastpath
    from repro.pisa.flowcache import FlowCache, collecting

    counters = EventCounters()
    histogram = DispatchLatencyHistogram()
    with observing(counters, histogram), collecting() as made:
        extras = _run_event_source(source)
    caches = [memo for memo in made if isinstance(memo, FlowCache)]
    fastpaths = [memo for memo in made if isinstance(memo, FlowFastpath)]
    _print(f"EventBus counters ({source})", counters.summary_rows())
    _print(
        f"EventBus dispatch latency / staleness ({source})",
        histogram.summary_rows(),
    )
    _print(f"flow-decision cache ({source})", _flow_cache_rows(caches))
    _print(f"flow fastpath ({source})", _fastpath_rows(fastpaths))
    for title, rows in extras.items():
        _print(title, rows)
    print(
        f"\n{len(counters.nonzero_kinds())} event type(s) observed, "
        f"{counters.total_published()} events published"
    )


def _flow_cache_rows(caches) -> List[str]:
    """Per-switch hit/miss/invalidation rows plus an aggregate line."""
    if not caches:
        return ["flow cache disabled (REPRO_FLOW_CACHE=0 or flow_cache=False)"]
    attached = [cache for cache in caches if cache.attached]
    parked = len(caches) - len(attached)
    note = [
        f"flow cache not attached on {parked} switch(es): the program "
        "declares a shared_register (or none is loaded)"
    ] if parked else []
    if not attached:
        return note
    caches = attached
    header = (
        f"{'switch':<16}{'hits':>10}{'misses':>10}{'uncacheable':>13}"
        f"{'invalidated':>13}{'revalidated':>13}{'evicted':>9}{'hit rate':>10}"
    )
    rows = [header]
    totals = {"hits": 0, "misses": 0, "uncacheable": 0, "invalidations": 0,
              "revalidated": 0, "evictions": 0}
    for cache in caches:
        stats = cache.stats
        for key in totals:
            totals[key] += getattr(stats, key)
        rows.append(
            f"{cache.name or '<anon>':<16}{stats.hits:>10}{stats.misses:>10}"
            f"{stats.uncacheable:>13}{stats.invalidations:>13}"
            f"{stats.revalidated:>13}{stats.evictions:>9}{stats.hit_rate:>10.1%}"
        )
    lookups = totals["hits"] + totals["misses"] + totals["uncacheable"]
    rate = totals["hits"] / lookups if lookups else 0.0
    rows.append(
        f"{'total':<16}{totals['hits']:>10}{totals['misses']:>10}"
        f"{totals['uncacheable']:>13}{totals['invalidations']:>13}"
        f"{totals['revalidated']:>13}{totals['evictions']:>9}{rate:>10.1%}"
    )
    return rows + note


def _fastpath_rows(fastpaths) -> List[str]:
    """Per-switch path/fusion rows plus an aggregate line.

    Note: ``events-stats`` itself attaches bus observers, which the
    fastpath treats as a reason not to fuse (observers need per-hop
    event visibility) — under this command every delivery is expected
    to show up as an ``observer`` fallback.
    """
    if not fastpaths:
        return ["flow fastpath disabled (REPRO_FLOW_FASTPATH=0 or fastpath=False)"]
    header = (
        f"{'switch':<16}{'paths':>7}{'fused':>8}{'fallbacks':>11}"
        f"{'invalidated':>13}{'fuse rate':>11}  top fallback reasons"
    )
    rows = [header]
    totals = {"paths_built": 0, "fused": 0, "invalidations": 0}
    reasons: Dict[str, int] = {}
    for fastpath in fastpaths:
        stats = fastpath.stats
        for key in totals:
            totals[key] += getattr(stats, key)
        for reason, count in stats.fallbacks.items():
            reasons[reason] = reasons.get(reason, 0) + count
        top = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(
                stats.fallbacks.items(), key=lambda item: -item[1]
            )[:3]
        )
        rows.append(
            f"{fastpath.name or '<anon>':<16}{stats.paths_built:>7}"
            f"{stats.fused:>8}{stats.fallbacks_total:>11}"
            f"{stats.invalidations:>13}{stats.fuse_rate:>11.1%}  {top}"
        )
    fallbacks_total = sum(reasons.values())
    attempts = totals["fused"] + fallbacks_total
    rate = totals["fused"] / attempts if attempts else 0.0
    top = ", ".join(
        f"{reason}={count}"
        for reason, count in sorted(reasons.items(), key=lambda item: -item[1])[:3]
    )
    rows.append(
        f"{'total':<16}{totals['paths_built']:>7}{totals['fused']:>8}"
        f"{fallbacks_total:>11}{totals['invalidations']:>13}{rate:>11.1%}  {top}"
    )
    return rows


def run_events_trace(
    source: str = "microburst",
    out: str = "events_trace.jsonl",
    limit: int = 5,
) -> None:
    """Capture a JSONL EventBus trace for one experiment."""
    from repro.obs import JsonlTraceSink, observing, read_events_trace

    sink = JsonlTraceSink(out)
    with observing(sink):
        _run_event_source(source)
    sink.close()
    records = read_events_trace(out)
    shown = records[:limit]
    import json

    rows = [json.dumps(record, sort_keys=True) for record in shown]
    if len(records) > limit:
        rows.append(f"… {len(records) - limit} more record(s)")
    _print(f"EventBus trace ({source}) → {out}", rows)
    print(f"\nwrote {len(records)} records to {out}")


# ----------------------------------------------------------------------
# Sharded-simulation subcommand
# ----------------------------------------------------------------------
def run_shard(
    topology: str = "leafspine",
    k: int = 4,
    leaves: int = 4,
    spines: int = 4,
    hosts_per_leaf: int = 2,
    shards: int = 2,
    mode: str = "process",
    workload: str = "incast",
    waves: int = 2,
    packets: int = 4,
    compare_serial: bool = False,
    json_out: str = "",
) -> int:
    """Run one fabric across N shard processes; optionally check vs serial."""
    import json

    from repro.experiments.shard_exp import (
        ShardScenario,
        run_serial,
        run_sharded,
        scenario_partition,
    )

    scenario = ShardScenario(
        topology=topology,
        k=k,
        leaf_count=leaves,
        spine_count=spines,
        hosts_per_leaf=hosts_per_leaf,
        workload=workload,
        waves=waves,
        packets_per_sender=packets,
    )
    partition = scenario_partition(scenario, shards)
    _print(f"partition of {partition.spec.name}", partition.summary_rows())
    result = run_sharded(scenario, shards=shards, mode=mode)
    _print(
        f"sharded run ({workload}, {mode}, {result.wall_s * 1e3:.1f} ms)",
        result.stats.summary_rows()
        + [f"behavior fingerprint {result.digest}"],
    )
    exit_code = 0
    serial = None
    if compare_serial:
        serial = run_serial(scenario)
        match = serial.fingerprint == result.fingerprint
        print(
            f"\nserial reference: {serial.total_received()} packets in "
            f"{serial.wall_s * 1e3:.1f} ms — fingerprint "
            f"{'MATCHES' if match else 'MISMATCH'}"
        )
        if not match:
            for host in sorted(serial.fingerprint):
                if serial.fingerprint[host] != result.fingerprint.get(host):
                    print(
                        f"  {host}: serial={serial.fingerprint[host]} "
                        f"sharded={result.fingerprint.get(host)}"
                    )
            exit_code = 1
    if json_out:
        record = {
            "topology": partition.spec.name,
            "shards": shards,
            "mode": mode,
            "workload": workload,
            "wall_s": result.wall_s,
            "digest": result.digest,
            "stats": result.stats.as_dict(),
        }
        if serial is not None:
            record["serial_wall_s"] = serial.wall_s
            record["fingerprint_match"] = exit_code == 0
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {json_out}")
    return exit_code


# ----------------------------------------------------------------------
# Chaos (fault-injection) subcommand
# ----------------------------------------------------------------------
def run_chaos(
    plan: str = "all",
    app: str = "all",
    seed: int = 7,
    seed_sweep: int = 0,
    out: str = "chaos_verdicts.jsonl",
    forked: bool = False,
    fastpath_arm: bool = False,
) -> int:
    """Run the fault-injection grid; nonzero exit on invariant violations."""
    from repro.faults import chaos

    plans = chaos.PLAN_NAMES if plan == "all" else (plan,)
    apps = chaos.APP_NAMES if app == "all" else (app,)
    seeds = list(range(seed, seed + seed_sweep)) if seed_sweep > 0 else [seed]
    records = chaos.run_grid(
        plans, apps, seeds, out_path=out, forked=forked, fastpath_arm=fastpath_arm
    )
    _print(
        f"chaos grid: {len(plans)} plan(s) x {len(apps)} app(s) x "
        f"{len(seeds)} seed(s)"
        + (" [forked]" if forked else "")
        + f" → {out}",
        chaos.summary_rows(records),
    )
    return 1 if chaos.violation_count(records) else 0


# ----------------------------------------------------------------------
# Scenario registry / serving subcommands
# ----------------------------------------------------------------------
def run_scenarios_list(argv: List[str]) -> int:
    """List the registered scenario catalog (the service's submit surface)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli scenarios",
        description="List registered scenarios (what `submit` accepts).",
    )
    parser.add_argument("filter", nargs="?", default="", help="substring filter")
    parser.add_argument("--tag", default="", help="only scenarios with this tag")
    args = parser.parse_args(argv)
    from repro import scenarios

    selected = scenarios.specs(args.tag or None)
    if args.filter:
        selected = [spec for spec in selected if args.filter in spec.name]
    rows = []
    for spec in selected:
        shape = "phased" if spec.is_phased else "single"
        tags = ",".join(spec.tags)
        rows.append(f"{spec.name:<26} {shape:<7} [{tags}] {spec.summary}")
    if not rows:
        rows = ["(no scenarios match)"]
    _print(f"{len(selected)} registered scenario(s)", rows)
    return 0


def _parse_params(items: List[str]) -> Dict[str, object]:
    """``key=value`` pairs; values parse as JSON, falling back to strings."""
    import json

    params: Dict[str, object] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def run_submit(argv: List[str]) -> int:
    """Submit one registered scenario to the job service and print its result."""
    from repro.serve.worker import DEFAULT_WINDOWS

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli submit",
        description="Run a registered scenario through the job service "
        "(a private in-process service, or --socket for a running one).",
    )
    parser.add_argument("name", help="registered scenario name (see `scenarios`)")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a declared scenario parameter (JSON value syntax)",
    )
    parser.add_argument(
        "--socket", default="", help="submit to the service at this unix socket"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="private-service worker processes"
    )
    parser.add_argument(
        "--windows",
        type=int,
        default=DEFAULT_WINDOWS,
        help="telemetry windows for phased scenarios",
    )
    args = parser.parse_args(argv)
    params = _parse_params(args.param)

    from repro.serve.client import ServiceClient, ServiceError, submit_inline

    try:
        if args.socket:
            with ServiceClient(args.socket) as client:
                reply = client.expect("submit", scenario=args.name, params=params)
                job_id = reply["job"]
                state = client.wait(job_id)
                result = client.request("result", job=job_id)
                record = {
                    "scenario": reply["scenario"],
                    "state": state,
                    "result": result.get("result") if result.get("ok") else None,
                    "error": "" if result.get("ok") else result.get("error", ""),
                    "telemetry": client.telemetry(job_id),
                }
        else:
            record = submit_inline(
                args.name, params, workers=args.workers, windows=args.windows
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for title, rows in ((record.get("result") or {}).get("rows", {}).items()):
        _print(f"{record['scenario']}: {title}", rows)
    windows = record.get("telemetry") or []
    if windows:
        last = windows[-1]
        _print(
            f"telemetry ({len(windows)} window(s))",
            [
                " ".join(f"{key}={value}" for key, value in sorted(last.items())),
            ],
        )
    if record["state"] != "done":
        print(
            f"\njob finished in state {record['state']}: {record.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    print(f"\n{record['scenario']}: done")
    return 0


# ----------------------------------------------------------------------
# Search subcommand
# ----------------------------------------------------------------------
def run_search_cli(argv: List[str]) -> int:
    """Run a parameter search over a registered scenario (see docs/SEARCH.md)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli search",
        description="Sweep/optimize a registered scenario's parameters "
        "(grid, random, or evolutionary) and write a SEARCH_<label>.json "
        "artifact; or report on / compare existing artifacts.",
    )
    parser.add_argument(
        "--scenario", default="", help="registered scenario to search"
    )
    parser.add_argument(
        "--objective",
        default="",
        help="expression over the result's metrics (e.g. 'fairness' or "
        "'fairness - 0.1 * aqm_drops')",
    )
    parser.add_argument(
        "--minimize",
        action="store_true",
        help="minimize the objective (default: maximize)",
    )
    parser.add_argument(
        "--domain",
        action="append",
        default=[],
        metavar="KEY=SPEC",
        help="a knob to explore: choice:a,b,c | range:lo:hi[:steps] | "
        "irange:lo:hi[:steps] | log:lo:hi[:steps] (repeatable)",
    )
    parser.add_argument(
        "--fixed",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="a knob pinned to one value for every trial (repeatable)",
    )
    parser.add_argument(
        "--strategy",
        choices=("grid", "random", "evolve"),
        default="grid",
        help="how to explore the domains",
    )
    parser.add_argument("--budget", type=int, default=16, help="max trials")
    parser.add_argument("--seed", type=int, default=7, help="search seed")
    parser.add_argument(
        "--population", type=int, default=8, help="evolve: population size"
    )
    parser.add_argument(
        "--generations", type=int, default=4, help="evolve: generation count"
    )
    parser.add_argument(
        "--tournament", type=int, default=2, help="evolve: tournament size"
    )
    parser.add_argument(
        "--mutation", type=float, default=0.3, help="evolve: per-gene mutation rate"
    )
    parser.add_argument(
        "--crossover", type=float, default=0.5, help="evolve: crossover rate"
    )
    parser.add_argument(
        "--label", default="local", help="artifact label (SEARCH_<label>.json)"
    )
    parser.add_argument(
        "--out", default="", metavar="PATH", help="artifact output path"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="trial worker processes (0/1 = inline)",
    )
    parser.add_argument(
        "--omit-host",
        action="store_true",
        help="omit the measured 'host' section so the artifact is a pure "
        "function of the spec (CI byte-compares this form)",
    )
    parser.add_argument(
        "--spec",
        default="",
        metavar="JSON_PATH",
        help="load the whole SearchSpec from a JSON file instead of flags",
    )
    parser.add_argument(
        "--via-service",
        action="store_true",
        help="submit the search as a search/run job on a private service "
        "instead of running in-process",
    )
    parser.add_argument(
        "--report",
        default="",
        metavar="SEARCH_JSON",
        help="print the leaderboard + frontier of an existing artifact and exit",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        default=None,
        metavar=("OLD_JSON", "NEW_JSON"),
        help="diff two artifacts (non-zero exit on regression)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.0,
        help="compare: allowed relative worsening of the best objective",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="report/run: leaderboard rows"
    )
    args = parser.parse_args(argv)

    from repro import search

    artifacts = []
    for path in args.compare or ([args.report] if args.report else []):
        try:
            artifacts.append(search.read_artifact(path))
        except (OSError, ValueError) as exc:
            return _cannot_read(path, exc)
    if args.compare:
        old, new = artifacts
        lines, problems = search.compare(
            old, new, max_regression=args.max_regression
        )
        _print(f"search compare: {args.compare[0]} -> {args.compare[1]}", lines)
        if problems:
            _print("SEARCH REGRESSIONS", problems)
            return 1
        print("\nno search regressions")
        return 0
    if args.report:
        (data,) = artifacts
        _print("leaderboard", search.leaderboard(data, top=args.top))
        _print("frontier", search.ascii_frontier(data))
        return 0

    try:
        if args.spec:
            import json

            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except (OSError, ValueError) as exc:
                return _cannot_read(args.spec, exc)
            spec = search.SearchSpec.from_dict(raw)
        else:
            if not args.scenario or not args.objective or not args.domain:
                parser.error(
                    "--scenario, --objective, and at least one --domain are "
                    "required (or --spec / --report / --compare)"
                )
            domains = {}
            for item in args.domain:
                key, sep, value = item.partition("=")
                if not sep or not key:
                    parser.error(f"--domain needs KEY=SPEC, got {item!r}")
                domains[key] = search.parse_domain(value)
            spec = search.SearchSpec(
                scenario=args.scenario,
                objective=args.objective,
                domains=domains,
                fixed=_parse_params(args.fixed),
                mode="min" if args.minimize else "max",
                strategy=args.strategy,
                budget=args.budget,
                seed=args.seed,
                label=args.label,
                population=args.population,
                generations=args.generations,
                tournament=args.tournament,
                mutation=args.mutation,
                crossover=args.crossover,
            )
        spec.validate()
    except search.SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.via_service:
        from repro.serve.client import ServiceError, submit_inline

        try:
            record = submit_inline("search/run", {"search": spec.to_dict()})
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if record["state"] != "done":
            print(
                f"error: search job finished in state {record['state']}: "
                f"{record.get('error', '')}",
                file=sys.stderr,
            )
            return 1
        data = record["result"]["value"]
    else:
        data = search.run_search(
            spec, workers=args.workers, host=not args.omit_host
        )
    path = args.out or f"SEARCH_{spec.label}.json"
    search.write_artifact(data, path)
    _print(f"search artifact → {path}", search.leaderboard(data, top=args.top))
    _print("frontier", search.ascii_frontier(data))
    from repro.obs import SearchStats

    _print("search stats", SearchStats.from_artifact(data).summary_rows())
    if data.get("best") is None:
        print("\nerror: no trial produced a valid objective", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Checkpoint / resume subcommands
# ----------------------------------------------------------------------
def _header_rows(header: Dict) -> List[str]:
    """Printable rows for a checkpoint header."""
    rows = [
        f"label={header.get('label') or '(none)'} "
        f"version={header['version']} python={header.get('python')}",
        f"now={header['now_ps']}ps "
        f"executed={header['events_executed']} pending={header['pending_events']}",
    ]
    stores = header.get("stores", [])
    rows.append(f"{len(stores)} state store(s):")
    for store in stores:
        rows.append(
            f"  {store['name']:<28} "
            f"size={store['size']:>6} populated={store['populated']}"
        )
    return rows


def run_checkpoint(ckpt: str, at_ps: int, duration_ps: int) -> int:
    """Run the §2 microburst experiment to --at-ps and checkpoint it."""
    from repro.experiments.microburst_exp import prepare_event_driven
    from repro.sim.checkpoint import save_checkpoint

    if not 0 < at_ps < duration_ps:
        print(
            f"error: --at-ps must fall inside the run "
            f"(0 < {at_ps} < {duration_ps})",
            file=sys.stderr,
        )
        return 2
    setup = prepare_event_driven(duration_ps=duration_ps)
    setup.network.run(until_ps=at_ps)
    header = save_checkpoint(
        ckpt, setup.network.sim, state=setup, label="microburst-event-driven"
    )
    _print(f"checkpoint → {ckpt}", _header_rows(header))
    print(f"\nresume with: python -m repro.cli resume --ckpt {ckpt}")
    return 0


def run_resume(ckpt: str, info: bool = False) -> int:
    """Resume a checkpointed microburst run (or --info: describe the file)."""
    from repro.sim.checkpoint import (
        CheckpointError,
        inspect_checkpoint,
        load_checkpoint,
    )

    try:
        if info:
            _print(f"checkpoint {ckpt}", _header_rows(inspect_checkpoint(ckpt)))
            return 0
        _sim, setup, header = load_checkpoint(ckpt)
    except (OSError, CheckpointError) as exc:
        return _cannot_read(ckpt, exc)
    from repro.experiments.microburst_exp import (
        MicroburstSetup,
        finish_event_driven,
    )

    if not isinstance(setup, MicroburstSetup):
        print(
            f"error: {ckpt} holds {type(setup).__name__}, not a "
            "MicroburstSetup (was it written by `repro.cli checkpoint`?)",
            file=sys.stderr,
        )
        return 2
    result = finish_event_driven(setup)
    _print(
        f"§2: microburst detection (resumed from {header['now_ps']}ps)",
        [result.summary_row()],
    )
    return 0


EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "figures": run_figures,
    "fig3": run_fig3,
    "microburst": run_microburst,
    "applications": run_applications,
    "cms": run_cms,
    "emulation": run_emulation,
    "future-work": run_future_work,
}


def main(argv: List[str] = None) -> int:
    """CLI entry point."""
    # Subcommands with their own argument namespaces dispatch before the
    # flat experiment parser sees them.
    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw and raw[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(raw[1:])
    if raw and raw[0] == "submit":
        return run_submit(raw[1:])
    if raw and raw[0] == "scenarios":
        return run_scenarios_list(raw[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's tables, figures, and claims.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "list", "events-stats", "events-trace",
           "checkpoint", "resume", "chaos", "shard",
           "scenarios", "search", "serve", "submit"],
        help="experiment to run ('all' for everything, 'list' to enumerate)",
    )
    parser.add_argument(
        "--source",
        default="microburst",
        help="registered 'source' scenario events-stats/events-trace "
        "instrument (unknown names print the catalog)",
    )
    parser.add_argument(
        "--out",
        default="",
        help="events-trace / chaos: output path (default events_trace.jsonl "
        "/ chaos_verdicts.jsonl)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=5,
        help="trace records events-trace prints",
    )
    parser.add_argument(
        "--topology",
        choices=("fattree", "leafspine"),
        default="leafspine",
        help="shard: fabric to build",
    )
    parser.add_argument(
        "--k",
        type=int,
        default=4,
        help="shard: fat-tree arity (even, >= 2)",
    )
    parser.add_argument(
        "--leaves",
        type=int,
        default=4,
        help="shard: leaf-spine leaf count",
    )
    parser.add_argument(
        "--spines",
        type=int,
        default=4,
        help="shard: leaf-spine spine count",
    )
    parser.add_argument(
        "--hosts-per-leaf",
        type=int,
        default=2,
        help="shard: hosts per leaf switch",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard: number of shard simulators",
    )
    parser.add_argument(
        "--mode",
        choices=("inline", "process"),
        default="process",
        help="shard: worker execution mode",
    )
    parser.add_argument(
        "--workload",
        choices=("incast", "zipf"),
        default="incast",
        help="shard: traffic pattern",
    )
    parser.add_argument(
        "--waves",
        type=int,
        default=2,
        help="shard: incast waves (zipf: schedule length multiplier)",
    )
    parser.add_argument(
        "--packets",
        type=int,
        default=4,
        help="shard: packets per sender per wave",
    )
    parser.add_argument(
        "--compare-serial",
        action="store_true",
        help="shard: also run single-process and diff behavior fingerprints "
        "(non-zero exit on mismatch)",
    )
    parser.add_argument(
        "--json-out",
        default="",
        metavar="PATH",
        help="shard: write the run record as JSON",
    )
    parser.add_argument(
        "--plan",
        default="all",
        help="chaos: fault plan to run ('all' = the whole catalog)",
    )
    parser.add_argument(
        "--app",
        default="all",
        help="chaos: application scenario to run ('all' = every app)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="chaos: base seed (every fault draw derives from it)",
    )
    parser.add_argument(
        "--seed-sweep",
        type=int,
        default=0,
        metavar="N",
        help="chaos: run N consecutive seeds starting at --seed",
    )
    parser.add_argument(
        "--fastpath-arm",
        action="store_true",
        help="chaos: add a flow-fastpath arm (fused deliveries, "
        "materialized on disruption) to each cell and gate it against a "
        "fastpath-pinned-off reference",
    )
    parser.add_argument(
        "--forked",
        action="store_true",
        help="chaos: build each (app, seed, arm) once and Simulator.fork() "
        "it per plan — identical records, O(fork) per cell",
    )
    parser.add_argument(
        "--ckpt",
        default="microburst.ckpt",
        metavar="PATH",
        help="checkpoint/resume: checkpoint file path",
    )
    parser.add_argument(
        "--at-ps",
        type=int,
        default=10_000_000_000,  # 10 ms into the default 20 ms run
        help="checkpoint: simulated time (ps) at which to snapshot",
    )
    parser.add_argument(
        "--duration-ps",
        type=int,
        default=20_000_000_000,
        help="checkpoint: total simulated duration (ps) of the run",
    )
    parser.add_argument(
        "--info",
        action="store_true",
        help="resume: print the checkpoint header and exit",
    )
    # The five subcommands that write a file the user names share one
    # handler: an unwritable path is a message and exit 2, not a traceback.
    try:
        if raw and raw[0] == "search":  # own argument namespace, as above
            return run_search_cli(raw[1:])
        args = parser.parse_args(argv)
        if args.experiment == "shard":
            return run_shard(
                topology=args.topology,
                k=args.k,
                leaves=args.leaves,
                spines=args.spines,
                hosts_per_leaf=args.hosts_per_leaf,
                shards=args.shards,
                mode=args.mode,
                workload=args.workload,
                waves=args.waves,
                packets=args.packets,
                compare_serial=args.compare_serial,
                json_out=args.json_out,
            )
        if args.experiment == "chaos":
            return run_chaos(
                plan=args.plan,
                app=args.app,
                seed=args.seed,
                seed_sweep=args.seed_sweep,
                out=args.out or "chaos_verdicts.jsonl",
                forked=args.forked,
                fastpath_arm=args.fastpath_arm,
            )
        if args.experiment == "events-trace":
            run_events_trace(args.source, args.out or "events_trace.jsonl", args.limit)
            return 0
        if args.experiment == "checkpoint":
            return run_checkpoint(args.ckpt, args.at_ps, args.duration_ps)
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"repro: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    if args.experiment == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            print(f"{name:<14} {fn.__doc__.splitlines()[0]}")
        for name, fn in (
            ("events-stats", run_events_stats),
            ("events-trace", run_events_trace),
            ("chaos", run_chaos),
            ("checkpoint", run_checkpoint),
            ("resume", run_resume),
            ("shard", run_shard),
            ("scenarios", run_scenarios_list),
            ("search", run_search_cli),
            ("submit", run_submit),
        ):
            print(f"{name:<14} {fn.__doc__.splitlines()[0]}")
        print(
            f"{'serve':<14} Run the scenario job service "
            "(stdio or --socket; see docs/SERVING.md)"
        )
        return 0
    if args.experiment == "resume":
        return run_resume(args.ckpt, info=args.info)
    if args.experiment == "events-stats":
        run_events_stats(args.source)
        return 0
    if args.experiment == "all":
        for name in sorted(EXPERIMENTS):
            EXPERIMENTS[name]()
        return 0
    EXPERIMENTS[args.experiment]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
