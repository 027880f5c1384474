"""Per-layer probes and spans: one layer's public API, driven alone.

A *probe* calls one public function in a loop on seeded inputs and
reports ns per call; a *span* times perf/'s own single call into a
layer.  Nothing here edits or patches ``repro``: in-program tracing is
a later issue.  Every traced child runs the whole suite whatever its
workload, so the rows are comparable across workloads and commits.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List

from workloads import H0_IP, H1_IP

#: Calls per probe at scale 1 (the issue asks for >= 10k).
PROBE_CALLS = 10_000
PROBE_REPEATS = 3


def _ns_per_call(fn: Callable[[], Any], calls: int) -> float:
    started = perf_counter()
    fn()
    return (perf_counter() - started) * 1e9 / calls


class _Stub:
    """A link endpoint that swallows what it is given."""

    def receive(self, pkt, port) -> None:
        pass

    def set_link_status(self, port, up) -> None:
        pass


def _chain_packets(calls: int):
    from repro.packet.builder import make_udp_packet

    return [
        make_udp_packet(H0_IP, H1_IP, sport=7_000 + i % 8, payload_len=22)
        for i in range(calls)
    ]


def probe_kernel(calls: int) -> Dict[str, float]:
    from repro.sim.kernel import Simulator

    sim = Simulator()
    left = [calls]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.call_after(1, tick)

    sim.call_at(0, tick)
    return {"sim.kernel.ns_per_event": _ns_per_call(sim.run, calls)}


def probe_packet(calls: int) -> Dict[str, float]:
    from repro.packet.parser import Deparser, standard_parser

    out = {"packet.build_ns": _ns_per_call(lambda: _chain_packets(calls), calls)}
    packets = _chain_packets(calls)
    deparse = Deparser().deparse
    frames: List[bytes] = []
    out["packet.deparse_ns"] = _ns_per_call(
        lambda: frames.extend(deparse(pkt) for pkt in packets), calls
    )
    parse = standard_parser().parse
    out["packet.parse_ns"] = _ns_per_call(
        lambda: [parse(frame) for frame in frames], calls
    )
    return out


def _edge_router(seed: int, k: int):
    """An L3Router holding a k-ary fat tree's edge table, and Zipf keys."""
    from repro.apps.l3fwd import L3Router
    from repro.net.routing import ecmp_routes
    from repro.net.topology import fat_tree_spec
    from repro.sim.rng import SeededRng

    spec = fat_tree_spec(k)
    program = L3Router()
    program.install_host_routes(ecmp_routes(spec)["edge0_0"])
    program.deny_flow(src=0x7F00_0001, src_mask=0xFFFF_FFFF, priority=5)
    ips = sorted(spec.host_ips().values())
    rng = SeededRng(seed, "perf/probe")
    return program, ips, rng


def probe_table(seed: int, calls: int, k: int) -> Dict[str, float]:
    from repro.packet.headers import IpProto

    program, ips, rng = _edge_router(seed, k)
    keys = [ips[rng.zipf_index(len(ips), 1.2)] for _ in range(calls)]
    acl, routes, nexthops = program.acl, program.routes, program.nexthops
    proto = int(IpProto.UDP)

    def walk() -> None:
        for dst in keys:
            acl.apply((H0_IP, dst, proto))
            route = routes.lookup_value(dst)
            nexthops.apply((route.params["nh"],))

    return {"pisa.table.lookup_ns": _ns_per_call(walk, 3 * calls)}


def _loaded_switch(seed: int, k: int, **knobs):
    from repro.experiments.factories import make_baseline_switch
    from repro.sim.kernel import Simulator

    program, ips, rng = _edge_router(seed, k)
    switch = make_baseline_switch(**knobs)(Simulator(), "edge0_0", k)
    switch.load_program(program)
    return switch, program, ips, rng


def probe_flowcache(seed: int, calls: int, k: int) -> Dict[str, float]:
    from repro.arch.events import EventType
    from repro.packet.builder import make_udp_packet

    switch, program, ips, rng = _loaded_switch(
        seed, k, flow_cache=True, compile=False, fastpath=False
    )
    cache, ctx = switch.flow_cache, switch.ctx
    kind = EventType.INGRESS_PACKET
    handler = program.handler_for(kind)

    def fresh(i: int, sport: int):
        pkt = make_udp_packet(H0_IP, ips[i % len(ips)], sport=sport, payload_len=22)
        meta = switch.meta_pool.acquire(ingress_port=0, packet_length=pkt.total_len)
        return pkt, meta

    # Record: every packet is a new flow (distinct sport), so each walk
    # runs under begin/commit; only those two calls are timed.
    record_s = 0.0
    for i in range(calls):
        pkt, meta = fresh(i, 1_024 + i)
        key = cache.flow_key(kind, pkt, meta)
        started = perf_counter()
        rec, rctx, rmeta = cache.begin(ctx, pkt, meta)
        record_s += perf_counter() - started
        handler(rctx, pkt, rmeta)
        started = perf_counter()
        cache.commit(rec, key, pkt, meta)
        record_s += perf_counter() - started
    # Hit: fresh packets of flows recorded above (replay rewrites the
    # TTL, so a replayed packet would no longer carry its flow's key).
    recorded = min(calls, cache.limit)
    flows = [calls - recorded + i % recorded for i in range(calls)]
    inputs = [fresh(flow, 1_024 + flow) for flow in flows]
    before = cache.stats.hits

    def hit() -> None:
        for pkt, meta in inputs:
            entry = cache.lookup(cache.flow_key(kind, pkt, meta))
            cache.replay(entry, pkt, meta)

    hit_ns = _ns_per_call(hit, calls)
    if cache.stats.hits - before != calls:
        raise RuntimeError("flow-cache hit probe missed")
    return {
        "pisa.flowcache.record_ns": record_s * 1e9 / calls,
        "pisa.flowcache.hit_ns": hit_ns,
    }


def probe_tm(calls: int) -> Dict[str, float]:
    from repro.sim.kernel import Simulator
    from repro.tm.traffic_manager import TrafficManager

    sim = Simulator()
    tm = TrafficManager(sim, port_count=2)
    tm.set_egress_callback(lambda pkt, port: None)
    packets = _chain_packets(calls)
    for pkt in packets:
        pkt.egress_port = 1
    burst = 32  # fits the default 64 KiB queue with room to spare

    def churn() -> None:
        for start in range(0, calls, burst):
            for pkt in packets[start:start + burst]:
                tm.enqueue(pkt)
            sim.run()

    ns = _ns_per_call(churn, calls)
    if tm.total_dequeued != calls or tm.drops_overflow:
        raise RuntimeError("traffic-manager probe lost packets")
    return {"tm.enq_deq_ns": ns}


def probe_bus(calls: int) -> Dict[str, float]:
    from repro.arch.bus import EventBus
    from repro.arch.events import Event, EventType
    from repro.sim.kernel import Simulator

    bus = EventBus(Simulator())
    seen = [0]

    def subscriber(event) -> None:
        seen[0] += 1

    bus.subscribe(subscriber)
    events = [Event(kind=EventType.TIMER, time_ps=0) for _ in range(calls)]

    def publish_all() -> None:
        for event in events:
            bus.publish(event)

    ns = _ns_per_call(publish_all, calls)
    if seen[0] != calls:
        raise RuntimeError("bus probe lost events")
    return {"arch.bus.publish_ns": ns}


def probe_link(calls: int) -> Dict[str, float]:
    from repro.net.link import Link
    from repro.sim.kernel import Simulator

    sim = Simulator()
    a, b = _Stub(), _Stub()
    link = Link(sim, a, 0, b, 0)
    packets = _chain_packets(calls)

    def carry() -> None:
        for pkt in packets:
            link.transmit_from(a, pkt)
        sim.run()

    ns = _ns_per_call(carry, calls)
    if link.delivered_packets != calls:
        raise RuntimeError("link probe lost packets")
    return {"net.link.transmit_ns": ns}


def probe_protocol(calls: int) -> Dict[str, float]:
    from repro.serve.protocol import decode, encode, event_message

    submit = {
        "op": "submit",
        "scenario": "microburst/event-driven",
        "params": {"duration_ps": 1_000_000_000, "seed": 1},
    }
    telemetry = event_message(
        "telemetry",
        job="job-1",
        telemetry={
            "now_ps": 500_000_000, "duration_ps": 1_000_000_000, "progress": 0.5,
            "events_executed": 2_343, "pending_events": 6, "published": 1_443,
            "handled": 909, "dropped": 0,
        },
    )

    def round_trips() -> None:
        for _ in range(calls // 2):
            decode(encode(submit))
            decode(encode(telemetry))

    return {"serve.protocol_ns": _ns_per_call(round_trips, calls)}


def span_compile(seed: int, k: int) -> Dict[str, float]:
    from repro.arch.events import EventType
    from repro.packet.builder import make_udp_packet
    from repro.pisa.compile import compile_switch

    switch, _program, ips, _rng = _loaded_switch(
        seed, k, flow_cache=True, compile=True, fastpath=False
    )
    pkt = make_udp_packet(H0_IP, ips[-1], payload_len=22)
    meta = switch.meta_pool.acquire(ingress_port=0, packet_length=pkt.total_len)
    started = perf_counter()
    dispatch = compile_switch(switch)
    dispatch[EventType.INGRESS_PACKET](pkt, meta)  # generation is lazy per kind
    wall = perf_counter() - started
    if meta.egress_spec is None:
        raise RuntimeError("compiled dispatch did not route the packet")
    return {"pisa.compile.compile_s": wall}


def span_fabric(k: int) -> Dict[str, float]:
    """Topology, routes, partition, program load, then checkpoint it."""
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.partition import partition_spec
    from repro.net.routing import ecmp_routes
    from repro.net.topology import fat_tree_spec, realize
    from repro.sim.checkpoint import dumps_checkpoint, loads_checkpoint

    spec = fat_tree_spec(k)
    out: Dict[str, float] = {}

    def span(name: str, fn: Callable[[], Any]) -> Any:
        started = perf_counter()
        value = fn()
        out[name] = perf_counter() - started
        return value

    network = span(
        "net.topology.realize_s", lambda: realize(spec, make_baseline_switch())
    )
    tables = span("net.routing.ecmp_routes_s", lambda: ecmp_routes(spec))
    span("net.partition.partition_s", lambda: partition_spec(spec, 2, "auto"))

    def load_all_switches() -> None:
        for name, switch in network.switches.items():
            program = L3Router()
            program.install_host_routes(tables[name])
            switch.load_program(program)

    span("arch.load_program_s", load_all_switches)
    blob = span(
        "sim.checkpoint.dumps_s", lambda: dumps_checkpoint(network.sim, state=network)
    )
    out["sim.checkpoint.bytes"] = len(blob)
    span("sim.checkpoint.loads_s", lambda: loads_checkpoint(blob))
    return out


def span_fork(seed: int) -> Dict[str, float]:
    from repro.faults.chaos import fork_scenario
    from repro.faults.scenarios import build_scenario

    scenario = build_scenario("frr", seed, flow_cache=True)
    started = perf_counter()
    fork_scenario(scenario)
    return {"sim.checkpoint.fork_s": perf_counter() - started}


def span_load_all() -> Dict[str, float]:
    """``load_all()`` in a fresh interpreter: here it is already half done."""
    code = (
        "from time import perf_counter as c; t = c(); "
        "from repro.scenarios import load_all; load_all(); print(c() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True, env=os.environ, timeout=60,
    )
    return {"scenarios.load_all_s": float(done.stdout.strip())}


def run_probes(seed: int, scale: float) -> Dict[str, float]:
    """Every probe and span row of ``metrics.PER_LAYER`` except the
    counts, ``trace.overhead_ratio`` and ``host.ref_s``.

    Each is run :data:`PROBE_REPEATS` times and the best kept: a probe
    lasts tens of milliseconds, well inside one of the host's slow spells.
    """
    calls = max(200, int(PROBE_CALLS * scale))
    k = 8 if scale >= 0.5 else 4
    suite: List[Callable[[], Dict[str, float]]] = [
        lambda: probe_kernel(calls),
        lambda: probe_packet(calls),
        lambda: probe_table(seed, calls, k),
        lambda: probe_flowcache(seed, calls, k),
        lambda: probe_tm(calls),
        lambda: probe_bus(calls),
        lambda: probe_link(calls),
        lambda: probe_protocol(calls),
        lambda: span_compile(seed, k),
        lambda: span_fabric(k),
        lambda: span_fork(seed),
        span_load_all,
    ]
    out: Dict[str, float] = {}
    for probe in suite:
        runs = [probe() for _ in range(PROBE_REPEATS)]
        out.update({name: min(run[name] for run in runs) for name in runs[0]})
    return out
