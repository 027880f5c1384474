"""End-to-end flow fastpath (:mod:`repro.pisa.fastpath`).

Fusing a multi-hop delivery into one kernel event may only ever change
*speed*, never *behavior*: the per-hop machinery is the reference, and
every test here either demands byte-identical end state with the
fastpath on vs off — including runs where a fault interrupts a fused
window mid-flight and the delivery must materialize back into the
per-hop machinery — or pokes the guard machinery (generation vectors,
quiescence, negative entries) that keeps the guarantee honest.
"""

import gc
import json
import os
import pickle
import subprocess
import sys
import weakref

import pytest

from repro.apps.l3fwd import L3Router
from repro.arch.events import EventType
from repro.arch.program import handler
from repro.experiments.factories import make_baseline_switch
from repro.faults.injector import Degradation
from repro.net.host import Host
from repro.net.topology import build_linear
from repro.packet.builder import make_udp_packet
from repro.pisa import fastpath as fastpath_module
from repro.pisa.fastpath import (
    FLOW_FASTPATH_ENV,
    FlowFastpath,
    _Flight,
    _PathEntry,
    _Unfusable,
)
from repro.pisa.flowcache import FlowCache
from repro.sim.rng import SeededRng
from repro.sim.shard import BoundaryLink

H0_IP = 0x0A00_0001
H1_IP = 0x0A00_0002
H2_IP = 0x0A00_0003


@pytest.fixture(autouse=True)
def _fastpath_on_by_default(monkeypatch):
    # CI runs the whole suite under both REPRO_FLOW_FASTPATH=1 and =0;
    # this module exercises the fastpath itself, so pin the default ON
    # and let individual tests override as needed.
    monkeypatch.setenv(FLOW_FASTPATH_ENV, "1")


def _fresh_l3():
    program = L3Router()
    program.install_host_routes({H0_IP: 0, H1_IP: 1})
    return program


def _build_chain(fastpath, switch_count=3, port_count=2):
    factory = make_baseline_switch(flow_cache=True, fastpath=fastpath)
    network = build_linear(
        lambda sim, name, _ports: factory(sim, name, port_count),
        switch_count=switch_count,
    )
    for name in sorted(network.switches):
        network.switches[name].load_program(_fresh_l3())
    received = []
    network.hosts["h1"].add_sink(
        lambda p: received.append((network.sim.now_ps, p.total_len))
    )
    return network, received


def _send_n(network, count, spacing_ps=8_000_000, flows=1):
    h0 = network.hosts["h0"]
    start = network.sim.now_ps + 1_000
    for i in range(count):
        src = H0_IP + 16 * (i % flows)
        network.sim.call_at(
            start + i * spacing_ps,
            h0.send,
            make_udp_packet(src, H1_IP, payload_len=200),
        )


def _switch_state(sw):
    return (
        sw.rx_packets,
        tuple(sorted((k.name, v) for k, v in sw.bus.fired.items())),
        tuple(sorted((k.name, v) for k, v in sw.bus.handled.items())),
        tuple(sorted((k.name, v) for k, v in sw.bus.suppressed.items())),
        sw.flow_cache.stats.as_dict(),
        sw.tm.total_enqueued,
        sw.tm.total_dequeued,
        sw.tm.drops_overflow,
        sw.stalled_rx_drops,
        sw.tm.buffer.admitted_packets,
        sw.tm.buffer.max_occupancy_bytes,
        tuple(
            (p.tx_packets, p.tx_bytes, p.busy_time_ps, p.busy, p.enabled)
            + tuple(q.stats for q in p.queues)
            for p in sw.tm.ports
        ),
        tuple(tuple(sorted(row.items())) for row in sw.state_summary()),
        sw.ingress_pipeline.packets_processed,
        sw.egress_pipeline.packets_processed,
        sw.ingress_pipeline.walks_elided,
        sw.egress_pipeline.walks_elided,
    )


def _network_state(network, received):
    state = {"arrivals": tuple(received)}
    for name in sorted(network.switches):
        state[name] = _switch_state(network.switches[name])
    state["links"] = tuple(
        tuple(sorted(l.conservation_ledger().items())) for l in network.links
    )
    state["hosts"] = tuple(
        (hn, h.received_packets, h.received_bytes, h.sent_packets)
        for hn, h in sorted(network.hosts.items())
    )
    return state


def _fastpath_totals(network):
    totals = {}
    for name in sorted(network.switches):
        fastpath = network.switches[name].flow_fastpath
        if fastpath is None:
            continue
        for key, value in fastpath.stats.as_dict().items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return totals


# ----------------------------------------------------------------------
# Env toggle / constructor plumbing
# ----------------------------------------------------------------------
def test_constructor_and_env_toggles(monkeypatch):
    network = build_linear(make_baseline_switch(fastpath=False), switch_count=1)
    assert network.switches["s0"].flow_fastpath is None
    monkeypatch.setenv(FLOW_FASTPATH_ENV, "0")
    network = build_linear(make_baseline_switch(), switch_count=1)
    assert network.switches["s0"].flow_fastpath is None
    monkeypatch.setenv(FLOW_FASTPATH_ENV, "1")
    network = build_linear(make_baseline_switch(), switch_count=1)
    assert isinstance(network.switches["s0"].flow_fastpath, FlowFastpath)


# ----------------------------------------------------------------------
# Equivalence: fused vs per-hop, in-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flows", [1, 3])
def test_multi_hop_state_identical_fused_vs_per_hop(flows):
    net_on, recv_on = _build_chain(True)
    _send_n(net_on, 30, flows=flows)
    net_on.run()
    net_off, recv_off = _build_chain(False)
    _send_n(net_off, 30, flows=flows)
    net_off.run()
    totals = _fastpath_totals(net_on)
    assert totals["fused"] > 0  # the fastpath actually engaged
    assert _network_state(net_on, recv_on) == _network_state(net_off, recv_off)


def test_fused_window_collapses_kernel_events():
    net_on, recv_on = _build_chain(True)
    _send_n(net_on, 30)
    net_on.run()
    net_off, recv_off = _build_chain(False)
    _send_n(net_off, 30)
    net_off.run()
    assert len(recv_on) == len(recv_off) == 30
    # One fused event replaces the per-hop delivery/dequeue cascade.
    assert net_on.sim.events_executed < net_off.sim.events_executed / 2


def test_cold_cache_warms_then_fuses():
    network, received = _build_chain(True)
    _send_n(network, 4)
    network.run()
    entry = network.switches["s0"].flow_fastpath
    # Packet 1 misses the cold flow cache (transient, not a negative
    # entry); packets 2-4 fuse against the recorded decisions.
    assert entry.stats.paths_built == 1
    assert entry.stats.fused == 3
    assert entry.stats.fuse_rate == 1.0  # cold misses are not fallbacks


def test_observer_attach_falls_back_with_reason():
    network, received = _build_chain(True)
    _send_n(network, 8)
    seen = []

    class Tap:
        def on_publish(self, bus, event, admitted):
            seen.append(event)

        def on_dispatch(self, bus, event, latency_ps, handled):
            pass

    # A bus observer needs per-hop event visibility: every fuse attempt
    # on the observed switch must fall back, tagged "observer".
    network.switches["s0"].bus.add_observer(Tap())
    network.run()
    entry = network.switches["s0"].flow_fastpath
    assert entry.stats.fused == 0
    assert entry.stats.fallbacks.get("observer", 0) >= 1
    assert len(received) == 8


# ----------------------------------------------------------------------
# Invalidation guards
# ----------------------------------------------------------------------
def test_link_flap_invalidates_and_stays_exact():
    def run(fastpath):
        network, received = _build_chain(fastpath)
        _send_n(network, 12)
        link = network._switch_port_links[("s1", 1)]
        network.sim.call_at(30_000_000, link.set_up, False)
        network.sim.call_at(34_000_000, link.set_up, True)
        network.run()
        return network, received

    net_on, recv_on = run(True)
    net_off, recv_off = run(False)
    assert _network_state(net_on, recv_on) == _network_state(net_off, recv_off)
    assert _fastpath_totals(net_on)["invalidations"] >= 1


def test_route_change_between_windows_invalidates():
    def run(fastpath):
        network, received = _build_chain(fastpath)
        _send_n(network, 12)
        program = network.switches["s1"].program
        # A real control-plane write (DSCP remark on the next hop),
        # timed into the gap between fused windows.
        network.sim.call_at(40_000_500, program.add_next_hop, 1, 1, 13)
        network.run()
        return network, received

    net_on, recv_on = run(True)
    net_off, recv_off = run(False)
    assert _network_state(net_on, recv_on) == _network_state(net_off, recv_off)
    assert _fastpath_totals(net_on)["invalidations"] >= 1


def _write_s1_next_hop(fastpath, dscps):
    """A chain carrying 16 packets, with one s1 next-hop write per entry
    of ``dscps`` (its DSCP remark), 40 µs, 80 µs and 104 µs in; the
    network runs up to, but not into, the last write.  Returns
    ``(network, received, last_write)``."""
    network, received = _build_chain(fastpath)
    _send_n(network, 16)
    program = network.switches["s1"].program
    writes = list(zip((40_000_500, 80_000_500, 104_000_500), dscps))
    for at, dscp in writes[:-1]:
        network.run(until_ps=at)
        program.add_next_hop(1, 1, dscp)
    network.run(until_ps=writes[-1][0])
    return network, received, lambda: program.add_next_hop(1, 1, writes[-1][1])


@pytest.mark.parametrize("dscp", [0, 13], ids=["reinstall", "remark"])
def test_a_write_keeps_the_fused_path_only_if_its_lookups_agree(dscp):
    # The first write evicts (nothing was logged yet) and turns the
    # cache's lookup log on; the second only revalidates.  The third
    # re-installs the next hop every path through s1 reads, or remarks it.
    network, received, write = _write_s1_next_hop(True, (0, 0, dscp))
    cache = network.switches["s1"].flow_cache
    fastpath = network.switches["s0"].flow_fastpath
    (path,) = _built_paths(fastpath)
    (entry,) = cache._entries.values()
    fused, generation = fastpath.stats.fused, fastpath.stats.fallbacks["generation"]
    assert cache.stats.revalidated == 1 and cache.stats.invalidations == 1
    write()
    network.run()
    kept = dscp == 0
    assert (_built_paths(fastpath) == [path]) == kept
    assert (cache._entries.get(path.hops[1].ingress_key) is entry) == kept
    assert fastpath.stats.fallbacks["generation"] == generation + (not kept)
    assert fastpath.stats.fused > fused
    assert cache.stats.revalidated == 1 + kept
    assert cache.stats.invalidations == 1 + (not kept)

    net_off, recv_off, write_off = _write_s1_next_hop(False, (0, 0, dscp))
    write_off()
    net_off.run()
    assert _network_state(network, received) == _network_state(net_off, recv_off)


def test_a_write_every_hundred_packets_invalidates_only_on_the_first():
    # chain_churn in small: eight flows, and from packet 100 on one
    # idempotent next-hop write per 100 packets, round robin over the
    # switches.  Only the entries recorded before a switch's first
    # write, which keep no lookup log, are ever invalidated.
    network, received = _build_chain(True)
    count, spacing = 4_000, 8_000_000
    _send_n(network, count, spacing_ps=spacing, flows=8)
    programs = [network.switches[name].program for name in sorted(network.switches)]
    for j in range(1, count // 100):
        at = 1_000 + j * 100 * spacing + spacing // 2
        network.sim.call_at(at, programs[j % 3].add_next_hop, 1, 1)
    network.run()
    assert len(received) == count
    for switch in network.switches.values():
        assert switch.flow_cache.stats.invalidations == 8
    totals = _fastpath_totals(network)
    assert totals["fused"] / (totals["fused"] + totals["fallbacks"]) >= 0.99


def test_program_reload_clears_paths():
    network, received = _build_chain(True)
    _send_n(network, 6)
    network.run()
    fastpath = network.switches["s0"].flow_fastpath
    assert fastpath._paths
    network.switches["s0"].load_program(_fresh_l3())
    assert not fastpath._paths


def _built_paths(fastpath):
    return [path for path in fastpath._paths.values() if type(path) is _PathEntry]


def test_link_connected_after_a_build_joins_the_neighborhood():
    network, _received = _build_chain(True, port_count=3)
    _send_n(network, 4)
    network.run()
    s1 = network.switches["s1"]
    fastpath = network.switches["s0"].flow_fastpath
    (path,) = _built_paths(fastpath)
    assert len(path.hops[1].incident_links) == 2
    assert path.hops[1].neighbor_hosts == ()
    # The neighborhood is bound per switch; gaining a link must refresh it.
    h2 = network.add_host(Host(network.sim, "h2", 0x0A00_0003))
    link = network.connect(s1, 2, h2, 0)
    fastpath.clear()
    _send_n(network, 4)
    network.run()
    (path,) = _built_paths(fastpath)
    assert path.hops[1].switch is s1
    assert link in path.hops[1].incident_links
    assert path.hops[1].neighbor_hosts == (h2,)


def _late_neighbor_run(fastpath, connect_first):
    """h0 -> h1 over a 3-switch chain, 64 B every 40 us.  Halfway, host
    h2 joins s1 (port 2) and sends 1,400 B to h1 just before each h0
    packet, so both contend for s1's port 1.  ``connect_first`` wires h2
    before the run instead."""
    factory = make_baseline_switch(flow_cache=True, fastpath=fastpath)
    network = build_linear(
        lambda sim, name, _ports: factory(sim, name, 3), switch_count=3
    )
    for name, h2_port in (("s0", 1), ("s1", 2), ("s2", 0)):
        program = L3Router()
        program.install_host_routes({H0_IP: 0, H1_IP: 1, H2_IP: h2_port})
        network.switches[name].load_program(program)
    sim = network.sim
    arrivals = []
    network.hosts["h1"].add_sink(
        lambda p: arrivals.append((sim.now_ps, p.total_len))
    )
    gap, start = 40_000_000, 1_000_000
    h0 = network.hosts["h0"]
    for i in range(200):
        frame = make_udp_packet(H0_IP, H1_IP, payload_len=22)  # 64 B
        sim.call_at(start + i * gap, h0.send, frame)

    def join_h2():
        h2 = network.add_host(Host(sim, "h2", H2_IP))
        network.connect(network.switches["s1"], 2, h2, 0)
        for i in range(100, 200):
            sim.call_at(
                start + i * gap - 500_000,
                h2.send,
                make_udp_packet(H2_IP, H1_IP, payload_len=1_358),
            )

    if connect_first:
        join_h2()
    else:
        sim.call_at(start + 100 * gap - 1_000_000, join_h2)
    network.run()
    return arrivals, network


@pytest.mark.parametrize("connect_first", [False, True])
def test_link_connected_mid_run_invalidates_stored_paths(connect_first):
    # A stored path binds each hop's neighborhood when it is built; a
    # link that joins an on-path switch later must not stay invisible to
    # the fuse check, or the fused arrival ignores the new contention.
    fused_run, network = _late_neighbor_run(True, connect_first)
    per_hop_run, _ = _late_neighbor_run(False, connect_first)
    assert len(fused_run) == 300
    assert fused_run == per_hop_run
    stats = network.switches["s0"].flow_fastpath.stats
    assert stats.fused > 0
    assert stats.fallbacks.get("topology", 0) == (0 if connect_first else 1)


def test_boundary_port_stays_unfusable():
    network, received = _build_chain(True, port_count=3)
    s1 = network.switches["s1"]
    network.attach_boundary(s1, 2, BoundaryLink(network.sim, s1, 2, "remote", 0))
    _send_n(network, 6)
    network.run()
    fastpath = network.switches["s0"].flow_fastpath
    (verdict,) = fastpath._paths.values()
    assert type(verdict) is _Unfusable and verdict.reason == "boundary"
    assert fastpath.stats.fused == 0
    assert fastpath.stats.fallbacks["boundary"] == 5  # every warm packet
    assert len(received) == 6


# ----------------------------------------------------------------------
# The fuse check: one reason per check, the first failing check answers
# ----------------------------------------------------------------------
class _Tap:
    def on_publish(self, bus, event, admitted):
        pass

    def on_dispatch(self, bus, event, latency_ps, handled):
        pass


def _join_h2(network, sw):
    h2 = network.add_host(Host(network.sim, "h2", H2_IP))
    network.connect(sw, 2, h2, 0)


#: One way to fail each fuse check at switch ``sw``, in the order the
#: guard runs them per hop: the staleness checks (they drop the path),
#: then the quiescence checks (they keep it).
_BREAKS = {
    "cache": lambda net, sw: setattr(sw, "flow_cache", FlowCache(net.sim)),
    "entry": lambda net, sw: sw.flow_cache._entries.clear(),
    "generation": lambda net, sw: sw.program.add_next_hop(1, 1, 13),
    "link": lambda net, sw: net._switch_port_links[(sw.name, 1)].set_up(False),
    "topology": _join_h2,
    "observer": lambda net, sw: sw.bus.add_observer(_Tap()),
    "disabled": lambda net, sw: setattr(sw, "flow_fastpath", None),
    "rate": lambda net, sw: sw.tm.set_port_rate(1, 5.0),
    "stalled": lambda net, sw: sw.stall(),
    "timers": lambda net, sw: sw._timers.update({0: None}),
    "busy": lambda net, sw: sw.tm.set_port_enabled(1, False),
    "queued": lambda net, sw: setattr(sw.tm.buffer, "occupancy_bytes", 64),
    "neighborhood": lambda net, sw: setattr(
        net._switch_port_links[(sw.name, 0)], "in_flight", 1
    ),
}
_STALE_REASONS = (
    "cache", "entry", "generation", "link", "topology", "observer", "disabled", "rate"
)


@pytest.mark.parametrize(
    "breaks, verdict",
    [
        pytest.param([("s1", reason)], (reason in _STALE_REASONS, reason), id=reason)
        for reason in _BREAKS
    ]
    + [
        # Two checks fail: the earlier one in the guard's order answers,
        # on one hop and across hops.
        pytest.param(
            [("s1", "stalled"), ("s1", "observer")], (True, "observer"), id="same-hop"
        ),
        pytest.param(
            [("s2", "cache"), ("s0", "queued")], (False, "queued"), id="hop-order"
        ),
    ],
)
def test_each_fuse_check_declines_with_its_reason(breaks, verdict):
    network, _received = _build_chain(True, port_count=3)
    _send_n(network, 4)
    network.run()
    fastpath = network.switches["s0"].flow_fastpath
    (path,) = _built_paths(fastpath)
    assert path.guard(network.sim.now_ps) is None
    for name, reason in breaks:
        _BREAKS[reason](network, network.switches[name])
    assert path.guard(network.sim.now_ps) == verdict
    stale, reason = verdict
    fallbacks = dict(fastpath.stats.fallbacks)
    pkt = make_udp_packet(H0_IP, H1_IP, payload_len=200)
    assert fastpath.handle(pkt, 0) is not None
    fallbacks[reason] = fallbacks.get(reason, 0) + 1
    assert fastpath.stats.fallbacks == fallbacks
    assert _built_paths(fastpath) == ([] if stale else [path])


# ----------------------------------------------------------------------
# Disruption-time materialization: faults mid-fused-window
# ----------------------------------------------------------------------
# Offsets (ps) from the victim packet's send time, chosen to land the
# fault in each stage of the 3-hop fused window: s0 ingress pipe,
# s0 serializing, s1 egress pipe, and the s1->s2 wire.
_OFFSETS = (20_000, 100_000, 1_560_000, 2_000_000)


def _faulted_network(fastpath, fault, offset):
    network, received = _build_chain(fastpath)
    _send_n(network, 12)
    t = 1_000 + 5 * 8_000_000 + offset
    sim = network.sim
    s1 = network.switches["s1"]
    mid_link = network._switch_port_links[("s1", 1)]
    if fault == "flap":
        sim.call_at(t, mid_link.set_up, False)
        sim.call_at(t + 1_000_000, mid_link.set_up, True)
    elif fault == "stall":
        sim.call_at(t, s1.stall)
        sim.call_at(t + 2_000_000, s1.unstall)
    elif fault == "impair":
        degradation = Degradation(SeededRng(7), 0.5, 0.2, 50_000)
        sim.call_at(t, mid_link.set_impairment, degradation)
        sim.call_at(t + 24_000_000, mid_link.set_impairment, None)
    elif fault == "pause":
        sim.call_at(t, s1.tm.set_port_enabled, 1, False)
        sim.call_at(t + 2_000_000, s1.tm.set_port_enabled, 1, True)
    network.run()
    return network, received


def _run_faulted(fastpath, fault, offset):
    network, received = _faulted_network(fastpath, fault, offset)
    return _network_state(network, received), _fastpath_totals(network)


@pytest.mark.parametrize("fault", ["flap", "stall", "impair", "pause"])
def test_disruption_materializes_byte_identically(fault):
    materialized = 0
    for offset in _OFFSETS:
        ref, _ = _run_faulted(False, fault, offset)
        fused, totals = _run_faulted(True, fault, offset)
        assert fused == ref, f"{fault}@{offset} diverged"
        materialized += totals["materialized"]
    # At least one offset per fault lands inside a fused window.
    assert materialized >= 1


def _spy_ingress_keys(monkeypatch):
    """Count ingress walks entered with and without a handed-over flow
    key, and every flow key the cache computes itself."""
    from repro.arch.baseline import BaselinePsaSwitch

    counts = {"keyed": 0, "keyless": 0, "computed": 0}
    ingress_done = BaselinePsaSwitch._ingress_done
    flow_key = FlowCache.flow_key

    def spied_ingress_done(switch, pkt, port, key=None):
        counts["keyless" if key is None else "keyed"] += 1
        ingress_done(switch, pkt, port, key)

    def spied_flow_key(cache, kind, pkt, meta):
        counts["computed"] += 1
        return flow_key(cache, kind, pkt, meta)

    monkeypatch.setattr(BaselinePsaSwitch, "_ingress_done", spied_ingress_done)
    monkeypatch.setattr(FlowCache, "flow_key", spied_flow_key)
    return counts


def test_materialized_packet_computes_its_own_ingress_key(monkeypatch):
    # The flap lands while a fused packet is still in s0's ingress pipe
    # (1.21-1.24 us after its send): it re-enters _ingress_done without
    # the key its fuse attempt built.
    offset = 1_220_000
    reference, _ = _run_faulted(False, "flap", offset)
    counts = _spy_ingress_keys(monkeypatch)
    fused, totals = _run_faulted(True, "flap", offset)
    assert totals["materialized"] == 1
    assert counts["keyless"] == counts["computed"] >= 1
    assert counts["keyed"] > 0
    assert fused == reference


# ----------------------------------------------------------------------
# Flight lifetime: a fused delivery is freed by refcount, not by the GC
# ----------------------------------------------------------------------
def _fused_chain():
    network, _received = _build_chain(True)
    _send_n(network, 30)
    network.run()
    return network


def _materialized_flap():
    # Lands the flap inside a fused window (s1's egress pipe).
    network, _received = _faulted_network(True, "flap", _OFFSETS[2])
    assert _fastpath_totals(network)["materialized"] == 1
    return network


@pytest.mark.parametrize("run", [_fused_chain, _materialized_flap])
def test_fused_flights_leave_no_garbage(run):
    gc.collect()
    gc.disable()
    try:
        network = run()  # held, so only the run's garbage is collectable
        flights = [obj for obj in gc.get_objects() if type(obj) is _Flight]
        freed = gc.collect()
    finally:
        gc.enable()
    assert _fastpath_totals(network)["fused"] > 0
    assert flights == []
    assert freed == 0


def test_compiled_paths_hold_no_reference_cycles(monkeypatch):
    # A path binds its objects as the argument defaults of code compiled
    # once per shape: neither a first compile nor a bound path leaves a
    # cycle, so a dropped path (and its generated functions) dies by
    # refcount.
    monkeypatch.setattr(fastpath_module, "_COMPILED", {})
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        network = _fused_chain()
        fastpath = network.switches["s0"].flow_fastpath
        (path,) = _built_paths(fastpath)
        deliver = weakref.ref(path.deliver)
        del path
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == []
    assert fastpath_module._COMPILED  # the shape was compiled in the run
    assert deliver().__code__.co_filename == "<fastpath deliver, 3 hops>"
    fastpath.clear()
    assert deliver() is None


# ----------------------------------------------------------------------
# Pickling / fork cold start
# ----------------------------------------------------------------------
def test_switch_pickles_and_restarts_cold():
    network = build_linear(
        make_baseline_switch(flow_cache=True, fastpath=True), switch_count=3
    )
    for name in sorted(network.switches):
        network.switches[name].load_program(_fresh_l3())
    received = []
    network.hosts["h1"].add_sink(received.append)
    _send_n(network, 8)
    network.run()
    switch = network.switches["s0"]
    assert switch.flow_fastpath._paths  # warm
    clone = pickle.loads(pickle.dumps(switch))
    assert isinstance(clone.flow_fastpath, FlowFastpath)
    assert clone.flow_fastpath._paths == {}  # cold: rebuilt on demand
    assert clone.flow_fastpath._active == []
    assert clone.rx_packets == switch.rx_packets


# ----------------------------------------------------------------------
# Chaos arm: fused + materialized deliveries under fault injection
# ----------------------------------------------------------------------
def test_chaos_fastpath_arm_cell_holds():
    from repro.faults.chaos import run_cell

    record = run_cell("linkflap", "l3chain", 1, fastpath_arm=True)
    assert record["ok"], record["violations"]
    assert record["arms"] == 3
    assert record["fastpath"]["fused"] > 0


# ----------------------------------------------------------------------
# Subprocess equivalence: whole experiments, env-toggled like CI
# ----------------------------------------------------------------------
_SCENARIO_SCRIPT = """
import dataclasses, json, sys

MS = 1_000_000_000
scenario = sys.argv[1]

if scenario == "microburst":
    from repro.experiments.microburst_exp import run_event_driven
    digest = dataclasses.asdict(run_event_driven(duration_ps=4 * MS, seed=7))
elif scenario == "hula":
    from repro.experiments.hula_exp import run_load_balance
    digest = dataclasses.asdict(run_load_balance(duration_ps=3 * MS, seed=7))
elif scenario == "netcache":
    from repro.experiments.netcache_exp import run_netcache
    digest = dataclasses.asdict(
        run_netcache(duration_ps=8 * MS, shift_at_ps=4 * MS, seed=7)
    )
elif scenario == "l3chain":
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    network = build_linear(make_baseline_switch(), switch_count=3)
    for name in sorted(network.switches):
        program = L3Router()
        program.install_host_routes({0x0A00_0001: 0, 0x0A00_0002: 1})
        network.switches[name].load_program(program)
    received = []
    network.hosts["h1"].add_sink(received.append)
    for i in range(40):
        network.sim.call_at(
            1_000 + i * 8_000_000,
            network.hosts["h0"].send,
            make_udp_packet(0x0A00_0001 + 16 * (i % 4), 0x0A00_0002, payload_len=200),
        )
    network.run()
    digest = {
        "delivery": [
            (p.payload_len, [(type(h).__name__, h.field_values()) for h in p.headers])
            for p in received
        ],
        "state": [sw.state_summary() for _n, sw in sorted(network.switches.items())],
    }
elif scenario == "fattree_sharded":
    from repro.experiments.shard_exp import ShardScenario, run_sharded

    result = run_sharded(
        ShardScenario(topology="fattree", k=4, waves=1, packets_per_sender=2),
        shards=4,
        mode="inline",
    )
    digest = {
        "digest": result.digest,
        "received": result.total_received(),
    }
else:
    raise SystemExit(f"unknown scenario {scenario!r}")

print(json.dumps(digest, sort_keys=True, default=repr))
"""

SCENARIOS = ("microburst", "hula", "netcache", "l3chain", "fattree_sharded")


def _run_scenario(scenario, fastpath_flag):
    env = dict(os.environ)
    env[FLOW_FASTPATH_ENV] = fastpath_flag
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO_SCRIPT, scenario],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_subprocess_fingerprints_identical_fastpath_on_vs_off(scenario):
    off = _run_scenario(scenario, "0")
    on = _run_scenario(scenario, "1")
    assert json.loads(off)  # sanity: the digest is substantive JSON
    assert on == off  # byte-identical stdout, not just equal objects


# ----------------------------------------------------------------------
# Known divergence: fused arrivals on fabrics deeper than a chain
# ----------------------------------------------------------------------
def _fat_tree_zipf_runtime(monkeypatch, seed, fastpath_flag):
    from repro.experiments.shard_exp import ShardScenario, build_shard
    from repro.pisa.flowcache import FLOW_CACHE_ENV

    # The cache is pinned on in both arms so the comparison means the
    # same thing on every CI leg (cache off agrees with per-hop).
    monkeypatch.setenv(FLOW_CACHE_ENV, "1")
    monkeypatch.setenv(FLOW_FASTPATH_ENV, fastpath_flag)
    scenario = ShardScenario(
        topology="fattree",
        k=4,
        workload="zipf",
        waves=3,
        packets_per_sender=16,
        seed=seed,
    )
    runtime = build_shard(0, scenario, 1)
    runtime.sim.run()
    return runtime


def _fat_tree_zipf_digest(monkeypatch, seed, fastpath_flag):
    from repro.sim.shard import behavior_fingerprint, fingerprint_digest

    runtime = _fat_tree_zipf_runtime(monkeypatch, seed, fastpath_flag)
    return fingerprint_digest(behavior_fingerprint(runtime.collect()))


def _fat_tree_zipf_totals(runtime):
    """Fastpath stats, fallback reasons and flow-cache stats, each
    summed over the switches."""
    totals = {"fastpath": {}, "reasons": {}, "flowcache": {}}

    def add(group, counts):
        for key, value in counts.items():
            totals[group][key] = totals[group].get(key, 0) + value

    for switch in runtime.network.switches.values():
        stats = switch.flow_fastpath.stats.as_dict()
        add("reasons", stats.pop("fallback_reasons"))
        add("fastpath", stats)
        add("flowcache", switch.flow_cache.stats.as_dict())
    return totals


# Which deliveries fuse, summed over the switches: the fused timing is
# pinned (see the xfail below), so a change to how fuse decisions are
# made must leave these exact.
_K4_ZIPF_DECISIONS = {
    1: {
        "fastpath": dict(fused=15, materialized=0, invalidations=0),
        "flowcache": dict(
            hits=2544,
            misses=832,
            uncacheable=0,
            invalidations=0,
            evictions=0,
            revalidated=0,
        ),
    },
    3: {
        "fastpath": dict(fused=13, materialized=0, invalidations=0),
        "flowcache": dict(
            hits=2572,
            misses=798,
            uncacheable=0,
            invalidations=0,
            evictions=0,
            revalidated=0,
        ),
    },
}

# How much work the declines cost: the paths built and the fallbacks by
# reason.  These move whenever a decline is answered earlier or later
# (the hop-0 gate answers most of them before any path walk).
_K4_ZIPF_EFFORT = {
    1: {
        "fastpath": dict(paths_built=70, fallbacks=2514),
        "reasons": dict(busy=1186, neighborhood=1107, queued=221),
    },
    3: {
        "fastpath": dict(paths_built=70, fallbacks=2544),
        "reasons": dict(busy=1182, neighborhood=1139, queued=223),
    },
}


def _pinned_part(totals, pins):
    """``totals`` cut down to the groups and fastpath keys ``pins`` has."""
    part = {group: totals[group] for group in pins}
    part["fastpath"] = {key: totals["fastpath"][key] for key in pins["fastpath"]}
    return part


@pytest.mark.parametrize("seed", sorted(_K4_ZIPF_DECISIONS))
def test_fat_tree_zipf_fuse_decisions_pinned(monkeypatch, seed):
    totals = _fat_tree_zipf_totals(_fat_tree_zipf_runtime(monkeypatch, seed, "1"))
    pins = _K4_ZIPF_DECISIONS[seed]
    assert _pinned_part(totals, pins) == pins


@pytest.mark.parametrize("seed", sorted(_K4_ZIPF_EFFORT))
def test_fat_tree_zipf_fastpath_effort_pinned(monkeypatch, seed):
    totals = _fat_tree_zipf_totals(_fat_tree_zipf_runtime(monkeypatch, seed, "1"))
    pins = _K4_ZIPF_EFFORT[seed]
    assert _pinned_part(totals, pins) == pins


def _fused_deliveries(monkeypatch, seed):
    """``(pkt_id, t0)`` of every fused delivery, in fuse order, and the
    run's behaviour fingerprint digest."""
    from repro.sim.shard import behavior_fingerprint, fingerprint_digest

    fused = []
    handle = FlowFastpath.handle

    def recorded_handle(fastpath, pkt, port):
        key = handle(fastpath, pkt, port)
        if key is None:
            fused.append((pkt.pkt_id, fastpath.sim.now_ps))
        return key

    monkeypatch.setattr(FlowFastpath, "handle", recorded_handle)
    # Packet ids are process-global: number them from the run's first.
    first_id = make_udp_packet(H0_IP, H1_IP).pkt_id + 1
    runtime = _fat_tree_zipf_runtime(monkeypatch, seed, "1")
    digest = fingerprint_digest(behavior_fingerprint(runtime.collect()))
    return [(pkt_id - first_id, t0) for pkt_id, t0 in fused], digest


@pytest.mark.parametrize("seed", [1, 3])
def test_fat_tree_zipf_entry_gate_fuses_what_the_path_walk_would(monkeypatch, seed):
    # The hop-0 gate declines a packet before its path walk when the
    # entry switch is not quiet.  Answering "quiet" there instead walks
    # and stores the path and lets the fuse check decline it (the
    # walk-first order): every fused delivery and every arrival must
    # be the same either way.
    gated = _fused_deliveries(monkeypatch, seed)
    with monkeypatch.context() as patch:
        patch.setattr(FlowFastpath, "_entry_unquiet", lambda fastpath, entry: None)
        walked = _fused_deliveries(patch, seed)
    assert gated[0] and gated == walked


class _L3RouterWithEgress(L3Router):
    """L3Router plus a pure egress walk that branches on its port."""

    @handler(EventType.EGRESS_PACKET)
    def egress(self, ctx, pkt, meta):
        if meta.egress_port == 0:
            pkt.meta["left_on_port_0"] = True


def test_fat_tree_zipf_ingress_runner_keys_equal_flow_key(monkeypatch):
    # Each declined packet's ingress walk looks the cache up under the
    # key its fuse attempt built; it must be the key the cache computes.
    # Every flat key a path build probes, ingress and (with an egress
    # walk loaded) egress, must be a key the per-hop walks computed.
    from repro.arch.base import SwitchBase
    from repro.experiments import shard_exp
    from repro.pisa import fastpath

    dispatch = SwitchBase._dispatch_packet_event
    lookup = FlowCache.lookup
    flat_key = fastpath._flow_key_flat
    ingress, egress = EventType.INGRESS_PACKET, EventType.EGRESS_PACKET
    runs = ((L3Router, {ingress}), (_L3RouterWithEgress, {ingress, egress}))
    for program, kinds in runs:
        expected, used, built = [], [], []

        def checked_dispatch(switch, kind, pkt, meta):
            cache = switch.flow_cache
            if cache is not None and switch.program.handler_for(kind) is not None:
                expected.append(cache.flow_key(kind, pkt, meta))
            dispatch(switch, kind, pkt, meta)

        def recorded_lookup(cache, key):
            used.append(key)
            return lookup(cache, key)

        def recorded_flat_key(*args):
            built.append(flat_key(*args))
            return built[-1]

        with monkeypatch.context() as patch:
            counts = _spy_ingress_keys(patch)
            patch.setattr(SwitchBase, "_dispatch_packet_event", checked_dispatch)
            patch.setattr(FlowCache, "lookup", recorded_lookup)
            patch.setattr(fastpath, "_flow_key_flat", recorded_flat_key)
            patch.setattr(shard_exp, "L3Router", program)
            _fat_tree_zipf_runtime(patch, 1, "1")
        assert used == expected
        assert counts["keyed"] == sum(key[0] is ingress for key in used) > 0
        assert {key[0] for key in used} == {key[0] for key in built} == kinds
        assert set(built) <= set(expected)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known fused-fastpath timing divergence (docs/PERFORMANCE.md, "
        "'Semantics and residuals'): fuse-time quiescence only looks one "
        "hop around the path, so on a fat tree a per-hop packet can reach "
        "an on-path port inside a fused window and the precomputed arrival "
        "ignores the contention — a few deliveries arrive earlier fused "
        "than per-hop (seed 3: 45d117de… fused vs ccbb81b8… per-hop). "
        "perf/expected.json pins the fused digests for fabric_zipf, so the "
        "fix must land together with a benchmark re-pin; strict so that "
        "whoever fixes it is told to delete this marker."
    ),
)
def test_fat_tree_zipf_matches_per_hop_reference(monkeypatch):
    fused = _fat_tree_zipf_digest(monkeypatch, 3, "1")
    per_hop = _fat_tree_zipf_digest(monkeypatch, 3, "0")
    assert fused == per_hop


def test_fat_tree_zipf_control_seed_matches_per_hop_reference(monkeypatch):
    # Same fabric, a seed whose traffic never meets a fused window: the
    # passing control for the strict xfail above.
    fused = _fat_tree_zipf_digest(monkeypatch, 1, "1")
    per_hop = _fat_tree_zipf_digest(monkeypatch, 1, "0")
    assert fused == per_hop
    assert fused.startswith("ddda7d75")
