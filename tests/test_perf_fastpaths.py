"""Tests for the PR-2 fast paths.

Covers the kernel's pinned execution order, table lookups across
entry changes, the packet layer, the metadata free-list, and the
zero-allocation no-observer dispatch path.
"""

import pytest

from repro.arch.events import EventType
from repro.packet.builder import make_udp_packet
from repro.packet.headers import Header, HeaderField
from repro.packet.parser import standard_parser
from repro.pisa.action import DROP, FORWARD, NO_ACTION
from repro.pisa.metadata import MetadataPool, StandardMetadata
from repro.pisa.table import ExactTable, LpmTable
from repro.sim.kernel import Simulator

from tests.test_checkpoint import trace_digest


# ----------------------------------------------------------------------
# Kernel order: the executed trace is pinned to a golden
# ----------------------------------------------------------------------
def _kernel_trace():
    """Drive one scripted schedule and record the executed-event trace.

    The script exercises same-timestamp ties across priorities and
    seqnos, cancellation before execution, cancellation *from a
    callback*, same-timestamp scheduling from inside a callback, and a
    bounded run.
    """
    sim = Simulator()
    trace = []
    sim.add_execution_observer(
        lambda ev: trace.append(("exec", sim.now_ps, ev.time_ps, ev.priority, ev.seqno))
    )

    def note(label):
        trace.append(("cb", sim.now_ps, label))

    # Same-timestamp ties: distinct priorities and scheduling order.
    sim.call_at(100, note, "tie-a", priority=5)
    sim.call_at(100, note, "tie-b", priority=0)
    sim.call_at(100, note, "tie-c", priority=5)

    # Cancellation before the run starts.
    doomed = sim.call_at(150, note, "never")
    doomed.cancel()

    # A callback that cancels a later event and schedules at its own
    # timestamp.
    victim = sim.call_at(300, note, "victim")

    def cancel_and_chain():
        note("chain")
        victim.cancel()
        sim.call_at(sim.now_ps, note, "same-ts", priority=1)
        sim.call_after(50, note, "later")

    sim.call_at(200, cancel_and_chain)
    sim.call_at(300, note, "survivor", priority=-1)

    # Bounded run splits the schedule across two drains.
    sim.run(until_ps=210)
    sim.call_after(5, note, "post-bound")
    sim.run()
    trace.append(("final", sim.now_ps, sim.events_executed, sim.pending_events))
    return trace


#: ("cb", now, label) per callback, ("exec", now, time, priority, seqno)
#: per executed event — the heap kernel's output, which the removed
#: wheel queue reproduced entry for entry.
KERNEL_TRACE = [
    ("cb", 100, "tie-b"),
    ("exec", 100, 100, 0, 1),
    ("cb", 100, "tie-a"),
    ("exec", 100, 100, 5, 0),
    ("cb", 100, "tie-c"),
    ("exec", 100, 100, 5, 2),
    ("cb", 200, "chain"),
    ("exec", 200, 200, 0, 5),
    ("cb", 200, "same-ts"),
    ("exec", 200, 200, 1, 7),
    ("cb", 215, "post-bound"),
    ("exec", 215, 215, 0, 9),
    ("cb", 250, "later"),
    ("exec", 250, 250, 0, 8),
    ("cb", 300, "survivor"),
    ("exec", 300, 300, -1, 6),
    ("final", 300, 8, 0),
]


def test_kernel_trace_matches_golden():
    trace = _kernel_trace()
    assert trace == KERNEL_TRACE
    labels = [entry[2] for entry in trace if entry[0] == "cb"]
    assert "never" not in labels and "victim" not in labels
    assert labels[:3] == ["tie-b", "tie-a", "tie-c"]  # (priority, seqno) order


def test_sume_experiment_trace_matches_golden():
    """Full-experiment determinism: the PR-1 recorder sees the pinned
    normalized bus trace (270 records; SHA-256 over its repr, recorded
    from the heap kernel, identical on every accelerator-toggle leg)."""
    from repro.experiments.psa_fig_exp import run_architecture
    from repro.obs import RecordingObserver, observing

    recorder = RecordingObserver()
    with observing(recorder):
        run_architecture("sume", packets=30)
    trace = recorder.normalized()
    assert len(trace) == 270
    assert trace_digest(trace) == (
        "4e15521e317f8789d2d6fc41da68d576fd6390c37428370432467d06b813f2b6"
    )


# ----------------------------------------------------------------------
# Table lookup caches
# ----------------------------------------------------------------------
def test_exact_table_cache_invalidated_on_insert_and_remove():
    table = ExactTable("t")
    default = NO_ACTION.bind()
    table.set_default(default)
    key = (7,)
    assert table.apply(key) is default  # miss, now cached
    assert table.apply(key) is default  # served from cache
    fwd = FORWARD.bind(port=3)
    table.insert(key, fwd)
    assert table.apply(key) is fwd  # insert invalidated the cached miss
    table.remove(key)
    assert table.apply(key) is default
    assert table.hit_count == 1
    assert table.miss_count == 3


def test_exact_table_cache_invalidated_on_default_change():
    table = ExactTable("t")
    key = (1,)
    first_default = table.apply(key)
    new_default = DROP.bind()
    table.set_default(new_default)
    assert table.apply(key) is new_default
    assert table.apply(key) is not first_default


def test_exact_table_cache_eviction_keeps_correctness():
    table = ExactTable("t", max_entries=4096)
    for i in range(306):
        table.insert((i,), FORWARD.bind(port=i % 4))
    for i in range(306):
        assert table.apply((i,)).params["port"] == i % 4
    # Re-applying an early key still resolves correctly.
    assert table.apply((0,)).params["port"] == 0


def test_lpm_cache_longest_prefix_invalidation():
    table = LpmTable("rt", width_bits=32)
    short = FORWARD.bind(port=1)
    table.insert(0x0A000000, 8, short)  # 10.0.0.0/8
    value = 0x0A0B0C0D
    assert table.apply_value(value) is short  # cached
    long = FORWARD.bind(port=2)
    table.insert(0x0A0B0C00, 24, long)  # 10.11.12.0/24
    # The cached /8 result must not shadow the newly longest prefix.
    assert table.apply_value(value) is long
    table.remove(0x0A0B0C00, 24)
    assert table.apply_value(value) is short
    default = table.default_action
    table.remove(0x0A000000, 8)
    assert table.apply_value(value) is default


def test_lpm_cache_default_action_invalidation():
    table = LpmTable("rt")
    assert table.apply_value(5) is table.default_action
    new_default = DROP.bind()
    table.set_default(new_default)
    assert table.apply_value(5) is new_default


# ----------------------------------------------------------------------
# Packet-layer fast paths
# ----------------------------------------------------------------------
def test_header_width_memoized_per_class():
    class Narrow(Header):
        NAME = "narrow"
        FIELDS = (HeaderField("a", 8),)

    class Wide(Narrow):
        NAME = "wide"
        FIELDS = (HeaderField("a", 8), HeaderField("b", 16))

    assert Narrow.width_bytes() == 1
    # The subclass must not inherit the parent's cached totals.
    assert Wide.width_bytes() == 3
    assert Narrow.width_bits() == 8 and Wide.width_bits() == 24


def test_header_len_cache_invalidated_by_push_pop():
    from repro.packet.headers import Ipv4, Udp

    pkt = make_udp_packet(1, 2, payload_len=10)
    base = pkt.header_len
    udp = pkt.pop(Udp)
    assert pkt.header_len == base - Udp.width_bytes()
    # pop-then-push back to the original length must still recompute.
    popped = pkt.pop(Ipv4)
    pkt.push(udp)
    assert pkt.header_len == base - Ipv4.width_bytes()
    pkt.push(popped)
    assert pkt.header_len == base


def test_parser_memoized_parse_returns_independent_packets():
    from repro.packet.parser import Deparser

    parser = standard_parser()
    data = Deparser().deparse(make_udp_packet(0x01020304, 0x05060708, payload_len=100))
    first = parser.parse(data)
    second = parser.parse(data)  # memo hit
    assert first.headers == second.headers
    assert first.payload_len == second.payload_len == 100
    assert all(a is not b for a, b in zip(first.headers, second.headers))
    # Mutating one parse result must not leak into the next.
    second.headers[0].set(dst=0xFFFF)
    third = parser.parse(data)
    assert third.headers[0].dst != 0xFFFF


# ----------------------------------------------------------------------
# Metadata free-list
# ----------------------------------------------------------------------
def test_metadata_pool_recycles_and_detaches_user_meta():
    pool = MetadataPool()
    meta = pool.acquire(ingress_port=3, packet_length=64)
    meta.send_to_port(1)
    meta.enq_meta["flow"] = 9
    aliased = meta.enq_meta
    pool.release(meta)
    again = pool.acquire(ingress_port=0, packet_length=128)
    assert again is meta  # recycled shell
    assert again.egress_spec is None and again.packet_length == 128
    assert again.enq_meta == {} and again.enq_meta is not aliased
    assert aliased == {"flow": 9}  # the handed-off dict was not clobbered


def test_metadata_pool_limit():
    pool = MetadataPool(limit=1)
    a, b = StandardMetadata(), StandardMetadata()
    pool.release(a)
    pool.release(b)  # beyond the limit: dropped, not pooled
    assert len(pool) == 1


def test_switch_reuses_metadata_shells():
    from repro.apps.microburst import MicroburstDetector
    from repro.experiments.factories import make_sume_switch
    from repro.net.topology import build_linear

    network = build_linear(make_sume_switch(), switch_count=1)
    program = MicroburstDetector(num_regs=16, flow_thresh_bytes=1 << 30)
    program.install_routes({0x0A00_0002: 1, 0x0A00_0001: 0})
    switch = network.switches["s0"]
    switch.load_program(program)
    network.hosts["h1"].add_sink(lambda pkt: None)
    h0 = network.hosts["h0"]
    for i in range(20):
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(0x0A00_0001, 0x0A00_0002, payload_len=64),
        )
    network.run()
    # Far fewer shells than pipeline traversals were ever constructed.
    assert len(switch.meta_pool) >= 1


# ----------------------------------------------------------------------
# Zero-allocation no-observer dispatch
# ----------------------------------------------------------------------
def test_packet_dispatch_skips_event_construction_without_observers(monkeypatch):
    from repro.arch import base as base_mod
    from repro.arch.bus import BusObserver
    from repro.arch.sume import SumeEventSwitch

    sim = Simulator()
    switch = SumeEventSwitch(sim)

    class Boom:
        def __init__(self, *args, **kwargs):
            raise AssertionError("Event constructed on the no-observer path")

    monkeypatch.setattr(base_mod, "Event", Boom)
    pkt = make_udp_packet(1, 2)
    meta = StandardMetadata()
    assert not switch.bus._observers
    # No program loaded: still must not build an Event.
    switch._dispatch_packet_event(EventType.INGRESS_PACKET, pkt, meta)
    before = switch.bus.fired[EventType.INGRESS_PACKET]
    assert before == 0  # no-program path returns before counting

    class NullProgram:
        def handler_for(self, kind):
            return None

        def shared_registers(self):
            return []

    switch.program = NullProgram()
    switch._dispatch_packet_event(EventType.INGRESS_PACKET, pkt, meta)
    assert switch.bus.fired[EventType.INGRESS_PACKET] == 1
    assert switch.bus.handled[EventType.INGRESS_PACKET] == 0

    # With an observer attached the instrumented path (which builds the
    # Event) must be taken again.
    switch.bus.add_observer(BusObserver())
    with pytest.raises(AssertionError, match="no-observer path"):
        switch._dispatch_packet_event(EventType.INGRESS_PACKET, pkt, meta)
