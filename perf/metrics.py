"""Names, units and directions of everything the benchmark reports.

One table per kind, so ``run.py``, ``child.py``, the smoke tests and
``BENCHMARK.json`` cannot drift apart: the tests assert that the JSON's
name sets, units, directions and bounds equal the ones declared here.

Every number is *host* time (``time.perf_counter``) for a fixed
simulated input; simulated results are checked against a digest, never
measured.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class WorkloadInfo(NamedTuple):
    name: str
    op: str  # what one "operation" is: the unit of ops_per_s / attempted
    #: Whether the timed region runs in the measuring process, where the
    #: host-speed reference (hostref.py) can be sampled between its slices.
    #: Work done by shard or service processes is reported as raw wall time:
    #: a reference loop in the child does not see their cores.
    in_process: bool
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float  # end-to-end only: share of the parent's median
    note: str


WORKLOADS: Tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "microburst_sume", "pkts", True,
        "paper par.2 detector on the SUME event switch: every flow uncacheable, "
        "so arch/tm/externs/kernel do all the work and pisa accelerators are overhead",
    ),
    WorkloadInfo(
        "fabric_zipf", "pkts", True,
        "serial k=8 fat tree, Zipf destinations: many flows per switch, cache hit "
        "ratio ~0.5, fastpath declines almost every packet",
    ),
    WorkloadInfo(
        "fabric_sharded", "pkts", False,
        "same fabric, incast, 2 shard processes: hit ratio ~0.98, so window sync, "
        "boundary pickling and pipes dominate",
    ),
    WorkloadInfo(
        "chain_paced", "pkts", True,
        "3-switch chain, 8 paced 64 B flows: best case for the fused fastpath "
        "(4 kernel events per packet), smallest packets",
    ),
    WorkloadInfo(
        "chain_churn", "pkts", True,
        "chain_paced plus one table write per 100 packets: invalidation, recompile "
        "and path rebuild beside the hit path",
    ),
    WorkloadInfo(
        "chaos_grid", "cells", True,
        "7 plans x 5 apps x 4 arms forked chaos grid: build, fork, injector and "
        "cold caches every run; set-up dominated",
    ),
    WorkloadInfo(
        "job_storm", "jobs", False,
        "job service over one socket: open-loop latency at 8 jobs/s then a "
        "64-job batch; admission, queueing, pipes with the simulator nearly idle",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)
WORKLOAD_BY_NAME: Dict[str, WorkloadInfo] = {w.name: w for w in WORKLOADS}

#: What the driver gates: emitted by every workload with ``--trace 0``.
END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "ops_per_s", "1/s", "higher", 0.25,
        "operations completed / time of the timed region (host-scaled and the "
        "median rep in-process, raw and the best rep otherwise); the operation "
        "is the workload's own (packet delivered, chaos cell, batch job)",
    ),
    Metric(
        "job_p50_ms", "ms", "lower", 0.25,
        "time a user waits for one result, median of a rep's samples, same rep "
        "rule: done - due of an open-loop job on job_storm, the timed run elsewhere",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "child start (before import repro) to start of the timed region, "
        "host-scaled, median of all set-ups of the invocation",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", 0.05,
        "ru_maxrss of the rep's child, or of its largest worker/shard/server "
        "child if that is larger; median over reps",
    ),
)

#: Suite-mode extras (``run.py`` without ``--workload``): they need more
#: samples than one driver run holds, or may legitimately be zero.
JOB_P90_MS = Metric(
    "job_p90_ms", "ms", "lower", 0.25,
    "job_storm only: 90th percentile of the pooled open-loop latencies "
    "(5 reps x 32 jobs = 160 samples, 16 beyond it)",
)
FAILED_RATIO = Metric(
    "failed_ratio", "ratio", "lower", 0.0,
    "failed / attempted operations; a sim_digest mismatch fails every "
    "operation of that rep",
)
SUITE_ONLY: Tuple[Metric, ...] = (JOB_P90_MS, FAILED_RATIO)

#: Per-layer rows every workload emits with ``--trace 1``.  ``count`` rows
#: repeat bit-for-bit; ``probe`` rows drive one layer's public API alone
#: on fixed seeded inputs; ``span`` rows time perf/'s own call into a layer.
PER_LAYER: Tuple[Metric, ...] = (
    # -- counts read from the workload's own switches after the run ------
    Metric("sim.kernel.events_per_pkt", "events/pkt", "lower", 0.0,
           "count: kernel events executed / packets delivered"),
    Metric("pisa.flowcache.hit_ratio", "ratio", "higher", 0.0,
           "count: FlowCacheStats hits / (hits + misses + uncacheable)"),
    Metric("pisa.flowcache.misses_per_pkt", "1/pkt", "lower", 0.0,
           "count: recorded walks / packets delivered"),
    Metric("pisa.flowcache.uncacheable_per_pkt", "1/pkt", "lower", 0.0,
           "count: walks of known-impure flows / packets delivered"),
    Metric("pisa.flowcache.invalidations", "count", "lower", 0.0,
           "count: entries evicted by a generation bump"),
    Metric("pisa.fastpath.fuse_ratio", "ratio", "higher", 0.0,
           "count: FastpathStats fused / (fused + fallbacks)"),
    Metric("pisa.fastpath.fallbacks_per_pkt", "1/pkt", "lower", 0.0,
           "count: declined fuse attempts / packets delivered"),
    Metric("pisa.pipeline.walks_elided_ratio", "ratio", "higher", 0.0,
           "count: Pipeline.walks_elided / packets_processed"),
    Metric("tm.drops", "count", "lower", 0.0,
           "count: TrafficManager.drops_overflow summed over switches"),
    Metric("arch.bus.published_per_pkt", "1/pkt", "lower", 0.0,
           "count: EventBus.published_total() / packets delivered"),
    Metric("sim.shard.windows", "count", "lower", 0.0,
           "count: ShardStats.windows (0 when the workload is not sharded)"),
    Metric("sim.shard.boundary_pkts", "count", "lower", 0.0,
           "count: packets pickled across shard boundaries"),
    Metric("sim.shard.stall_windows", "count", "lower", 0.0,
           "count: windows in which a shard executed nothing"),
    Metric("serve.retries", "count", "lower", 0.0,
           "count: retry events the service pushed (0 without a service)"),
    # -- probes: one layer's public API alone, seeded inputs --------------
    Metric("sim.kernel.ns_per_event", "ns", "lower", 0.0,
           "probe: chained call_after timers"),
    Metric("packet.build_ns", "ns", "lower", 0.0,
           "probe: make_udp_packet over chain_paced's 8 flows"),
    Metric("packet.parse_ns", "ns", "lower", 0.0,
           "probe: standard_parser().parse of those frames"),
    Metric("packet.deparse_ns", "ns", "lower", 0.0,
           "probe: Deparser.deparse of those packets"),
    Metric("pisa.table.lookup_ns", "ns", "lower", 0.0,
           "probe: L3Router ternary/LPM/exact lookups, k=8 edge table, Zipf keys"),
    Metric("pisa.flowcache.hit_ns", "ns", "lower", 0.0,
           "probe: flow_key + lookup + replay on a recorded flow"),
    Metric("pisa.flowcache.record_ns", "ns", "lower", 0.0,
           "probe: begin + commit around one L3Router walk"),
    Metric("tm.enq_deq_ns", "ns", "lower", 0.0,
           "probe: standalone TrafficManager.enqueue + drain, per packet"),
    Metric("arch.bus.publish_ns", "ns", "lower", 0.0,
           "probe: EventBus.publish with one subscriber"),
    Metric("net.link.transmit_ns", "ns", "lower", 0.0,
           "probe: Link.transmit_from + delivery between stub endpoints"),
    Metric("serve.protocol_ns", "ns", "lower", 0.0,
           "probe: encode + decode of a submit and a telemetry message"),
    # -- spans: perf/ times its own call into the layer ------------------
    Metric("pisa.compile.compile_s", "s", "lower", 0.0,
           "span: compile_switch + first dispatch on a loaded k=8 edge switch"),
    Metric("net.topology.realize_s", "s", "lower", 0.0,
           "span: realize(fat_tree_spec(8))"),
    Metric("net.routing.ecmp_routes_s", "s", "lower", 0.0,
           "span: ecmp_routes(fat_tree_spec(8))"),
    Metric("net.partition.partition_s", "s", "lower", 0.0,
           "span: partition_spec(fat_tree_spec(8), 2)"),
    Metric("arch.load_program_s", "s", "lower", 0.0,
           "span: L3Router build + load_program on all 80 switches"),
    Metric("sim.checkpoint.dumps_s", "s", "lower", 0.0,
           "span: dumps_checkpoint of the loaded k=8 fabric"),
    Metric("sim.checkpoint.loads_s", "s", "lower", 0.0,
           "span: loads_checkpoint of that blob"),
    Metric("sim.checkpoint.bytes", "bytes", "lower", 0.0,
           "size of that blob (its header lists the process's live state stores, "
           "so it is near-exact, not a repeating count)"),
    Metric("sim.checkpoint.fork_s", "s", "lower", 0.0,
           "span: fork_scenario of one built chaos scenario (frr)"),
    Metric("scenarios.load_all_s", "s", "lower", 0.0,
           "span: repro.scenarios.load_all() in a fresh interpreter"),
    Metric("trace.overhead_ratio", "ratio", "lower", 0.0,
           "span: wall of the traced rep / wall of the untraced rep before it"),
    Metric("host.ref_s", "s", "lower", 0.0,
           "median of the child's hostref.sample() readings: host drift, not code"),
)

#: Rows only the named workload's traced run can fill (they re-run the
#: workload another way); printed and saved, not in the driver's JSON.
EXTENDED: Dict[str, Tuple[Metric, ...]] = {
    "fabric_sharded": (
        Metric("sim.shard.compute_share", "ratio", "higher", 0.0,
               "span: max per-shard window wall / coordinator wall"),
        Metric("sim.shard.wait_share", "ratio", "lower", 0.0,
               "span: 1 - mean per-shard window wall / coordinator wall"),
        Metric("sim.shard.inline_s", "s", "lower", 0.0,
               "span: the same run with mode='inline' (engine without processes)"),
        Metric("sim.shard.speedup", "ratio", "higher", 0.0,
               "span: run_serial wall / sharded wall"),
    ),
    "chaos_grid": (
        Metric("faults.build_s", "s", "lower", 0.0,
               "span: build_scenario, summed over the grid"),
        Metric("faults.fork_s", "s", "lower", 0.0,
               "span: fork_scenario, summed over the grid"),
        Metric("faults.run_s", "s", "lower", 0.0,
               "span: run_instance_on, summed over the grid"),
        Metric("faults.fork_vs_fresh", "ratio", "higher", 0.0,
               "span: run_grid wall / run_forked_cells wall, same cells"),
    ),
    "job_storm": (
        Metric("serve.batch_drain_s", "s", "lower", 0.0,
               "span: first submit of the batch to its last done event"),
        Metric("serve.boot_s", "s", "lower", 0.0,
               "span: spawn of `repro.cli serve` to its hello reply"),
        Metric("serve.admit_ms", "ms", "lower", 0.0,
               "span: submit written to ack read, median over open-loop jobs"),
        Metric("serve.overhead_ms", "ms", "lower", 0.0,
               "span: job_p50_ms - median wall of the same jobs run directly"),
        Metric("serve.gen_late_ms", "ms", "lower", 0.0,
               "how late the open-loop generator sent, 90th percentile"),
    ),
    "chain_paced": (
        Metric("obs.observer_cost_ratio", "ratio", "higher", 0.0,
               "span: ops_per_s with an EventCounters observer / without"),
    ),
}

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
#: Rows that must repeat bit-for-bit between two runs of one seed.
COUNT_NAMES = tuple(m.name for m in PER_LAYER if m.note.startswith("count:"))
UNITS: Dict[str, str] = {
    m.name: m.unit
    for group in (END_TO_END, SUITE_ONLY, PER_LAYER, *EXTENDED.values())
    for m in group
}
