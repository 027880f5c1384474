"""Unit tests for the traffic manager's datapath and event hooks."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.packet.builder import make_udp_packet
from repro.sim.kernel import Simulator
from repro.sim.units import bytes_to_time_ps
from repro.tm.scheduler import (
    FifoScheduler,
    PifoScheduler,
    StrictPriorityScheduler,
)
from repro.tm.traffic_manager import TrafficManager


def make_tm(sim, **kwargs):
    defaults = dict(port_count=2, queue_capacity_bytes=2_000, port_rate_gbps=10.0)
    defaults.update(kwargs)
    return TrafficManager(sim, **defaults)


def routed_pkt(port=0, payload=458, enq_meta=None, deq_meta=None):
    # 458B payload + 42B headers = 500B total, 520B on the wire.
    pkt = make_udp_packet(1, 2, payload_len=payload)
    pkt.egress_port = port
    if enq_meta:
        pkt.meta["enq_meta"] = enq_meta
    if deq_meta:
        pkt.meta["deq_meta"] = deq_meta
    return pkt


def test_enqueue_requires_egress_port():
    sim = Simulator()
    tm = make_tm(sim)
    pkt = make_udp_packet(1, 2)
    with pytest.raises(ValueError):
        tm.enqueue(pkt)


def test_packet_transits_and_reaches_egress_callback():
    sim = Simulator()
    tm = make_tm(sim)
    out = []
    tm.set_egress_callback(lambda pkt, port: out.append((pkt.pkt_id, port)))
    pkt = routed_pkt(port=1)
    assert tm.enqueue(pkt)
    sim.run()
    assert out == [(pkt.pkt_id, 1)]


def test_serialization_time_matches_wire_length():
    sim = Simulator()
    tm = make_tm(sim)
    done = []
    tm.set_egress_callback(lambda pkt, port: done.append(sim.now_ps))
    pkt = routed_pkt(payload=458)  # 500B total, 520B on wire
    tm.enqueue(pkt)
    sim.run()
    assert done == [bytes_to_time_ps(520, 10.0)]


def test_hooks_fire_in_order_with_metadata():
    sim = Simulator()
    tm = make_tm(sim)
    tm.set_egress_callback(lambda pkt, port: None)
    events = []
    tm.hooks.on_enqueue = lambda pkt, port, qid, depth, meta: events.append(
        ("enq", depth)
    )
    tm.hooks.on_dequeue = lambda pkt, port, qid, depth, meta: events.append(
        ("deq", depth)
    )
    tm.hooks.on_transmit = lambda pkt, port, qid, depth, meta: events.append(
        ("tx", sim.now_ps)
    )
    tm.hooks.on_underflow = lambda pkt, port, qid, depth, meta: events.append(
        ("under", depth)
    )
    pkt = routed_pkt(payload=458)
    tm.enqueue(pkt)
    sim.run()
    kinds = [kind for kind, _ in events]
    assert kinds == ["enq", "deq", "under", "tx"]
    assert events[0][1] == 500  # depth right after enqueue
    assert events[1][1] == 0  # drained immediately (idle port)


def test_user_metadata_propagates_to_hooks():
    sim = Simulator()
    tm = make_tm(sim)
    tm.set_egress_callback(lambda pkt, port: None)
    seen = {}
    tm.hooks.on_enqueue = lambda pkt, port, qid, depth, meta: seen.update(
        enq=dict(meta)
    )
    tm.hooks.on_dequeue = lambda pkt, port, qid, depth, meta: seen.update(
        deq=dict(meta)
    )
    pkt = routed_pkt(enq_meta={"flowID": 7, "pkt_len": 500},
                     deq_meta={"flowID": 7, "pkt_len": 500})
    tm.enqueue(pkt)
    sim.run()
    assert seen["enq"]["flowID"] == 7
    assert seen["deq"]["flowID"] == 7


def test_queue_overflow_drops_and_fires_hook():
    sim = Simulator()
    tm = make_tm(sim, queue_capacity_bytes=1_000, port_rate_gbps=0.001)
    drops = []
    tm.hooks.on_overflow = lambda pkt, port, qid, depth, meta: drops.append(
        pkt.pkt_id
    )
    admitted = 0
    for _ in range(5):
        if tm.enqueue(routed_pkt(payload=458)):  # 500B each
            admitted += 1
    # Port is glacial, so queue holds: 1 transmitting + capacity-bound.
    assert tm.drops_overflow > 0
    assert len(drops) == tm.drops_overflow
    assert admitted + tm.drops_overflow == 5


def test_shared_buffer_limit_enforced_across_ports():
    sim = Simulator()
    tm = TrafficManager(
        sim,
        port_count=2,
        queue_capacity_bytes=10_000,
        buffer_capacity_bytes=1_200,
        port_rate_gbps=0.001,
    )
    # The first packet per port is dequeued immediately (buffer bytes
    # are released when serialization starts), so back up port 0 with
    # queued packets until the shared budget runs out.
    assert tm.enqueue(routed_pkt(port=0, payload=458))  # serializing
    assert tm.enqueue(routed_pkt(port=0, payload=458))  # queued (500B)
    assert tm.enqueue(routed_pkt(port=0, payload=458))  # queued (1000B)
    assert not tm.enqueue(routed_pkt(port=1, payload=458))  # 1500 > 1200


def test_disabled_port_holds_packets():
    sim = Simulator()
    tm = make_tm(sim)
    out = []
    tm.set_egress_callback(lambda pkt, port: out.append(pkt))
    tm.set_port_enabled(0, False)
    tm.enqueue(routed_pkt(port=0, payload=0))
    sim.run()
    assert out == []
    assert tm.port_depth_bytes(0) == 64
    tm.set_port_enabled(0, True)
    sim.run()
    assert len(out) == 1


def test_port_rate_change():
    sim = Simulator()
    tm = make_tm(sim)
    tm.set_port_rate(0, 1.0)
    done = []
    tm.set_egress_callback(lambda pkt, port: done.append(sim.now_ps))
    tm.enqueue(routed_pkt(payload=458))
    sim.run()
    assert done == [bytes_to_time_ps(520, 1.0)]
    with pytest.raises(ValueError):
        tm.set_port_rate(0, 0)


def test_multiple_queues_and_stats():
    sim = Simulator()
    tm = TrafficManager(sim, port_count=1, queues_per_port=2,
                        queue_capacity_bytes=10_000)
    tm.set_egress_callback(lambda pkt, port: None)
    pkt = routed_pkt(port=0)
    pkt.queue_id = 1
    tm.enqueue(pkt)
    sim.run()
    stats = tm.port_stats(0)
    assert stats["tx_packets"] == 1
    assert stats["busy_time_ps"] > 0


def test_queue_id_clamped_to_available_queues():
    sim = Simulator()
    tm = make_tm(sim)  # 1 queue per port
    pkt = routed_pkt(port=0)
    pkt.queue_id = 7
    assert tm.enqueue(pkt)


def test_invalid_port_raises():
    sim = Simulator()
    tm = make_tm(sim)
    with pytest.raises(IndexError):
        tm.queue_depth_bytes(5)
    pkt = routed_pkt(port=9)
    with pytest.raises(IndexError):
        tm.enqueue(pkt)


def test_back_to_back_transmissions_serialize():
    sim = Simulator()
    tm = make_tm(sim)
    finish_times = []
    tm.set_egress_callback(lambda pkt, port: finish_times.append(sim.now_ps))
    for _ in range(3):
        tm.enqueue(routed_pkt(payload=458))
    sim.run()
    per_pkt = bytes_to_time_ps(520, 10.0)
    assert finish_times == [per_pkt, 2 * per_pkt, 3 * per_pkt]


def test_negative_queue_id_clamps_to_queue_zero_everywhere():
    sim = Simulator()
    tm = make_tm(sim, queues_per_port=2)
    tm.set_egress_callback(lambda pkt, port: None)
    reported = []
    for kind in ("enqueue", "dequeue", "transmit"):
        setattr(
            tm.hooks,
            f"on_{kind}",
            lambda pkt, port, qid, depth, meta, kind=kind: reported.append(
                (kind, qid)
            ),
        )
    tm.set_port_enabled(0, False)
    pkt = routed_pkt(port=0)
    pkt.queue_id = -1
    assert tm.enqueue(pkt)
    assert tm.queue_depth_bytes(0, 0) == 500
    assert tm.queue_depth_bytes(0, 1) == 0
    tm.set_port_enabled(0, True)
    sim.run()
    assert reported == [("enqueue", 0), ("dequeue", 0), ("transmit", 0)]
    assert tm.ports[0].queues[0].stats.dequeued_packets == 1
    assert tm.ports[0].queues[1].stats.enqueued_packets == 0


def test_queue_depth_clamps_queue_id_like_enqueue():
    sim = Simulator()
    tm = make_tm(sim)  # 1 queue per port
    tm.set_port_enabled(0, False)
    pkt = routed_pkt(port=0)
    pkt.queue_id = 3
    assert tm.enqueue(pkt)
    assert tm.queue_depth_bytes(0, 3) == tm.queue_depth_bytes(0, 0) == 500
    assert tm.queue_depth_bytes(0, -1) == 500


# ----------------------------------------------------------------------
# Backlog accounting under every scheduler (property test)
# ----------------------------------------------------------------------
def _scheduler_factory(kind):
    if kind == "fifo":
        return FifoScheduler
    if kind == "sp":
        return StrictPriorityScheduler
    # A small PIFO, so better-ranked arrivals displace its tail.
    return lambda queues: PifoScheduler(
        queues, rank_fn=lambda pkt: pkt.priority, capacity=2
    )


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            st.integers(0, 1),  # port
            st.integers(0, 600),  # payload
            st.integers(-2, 4),  # queue id, out-of-range ones included
            st.integers(0, 7),  # priority (the PIFO's rank)
        ),
        st.tuples(st.just("toggle"), st.integers(0, 1)),
        # Up to about five 500 B serializations at 1 Gb/s.
        st.tuples(st.just("run"), st.integers(0, 20_000_000)),
    ),
    max_size=30,
)


def _port_depth_from_queues(port_obj):
    if port_obj.is_pifo:
        return len(port_obj.scheduler.pifo), port_obj.scheduler.depth_bytes
    return (
        sum(len(q) for q in port_obj.queues),
        sum(q.depth_bytes for q in port_obj.queues),
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["fifo", "sp", "pifo"]),
    queues=st.integers(1, 3),
    steps=_steps,
)
# One in service, two in the PIFO, then a better rank displaces its tail.
@example(
    kind="pifo",
    queues=2,
    steps=[("enqueue", 0, 100, 0, rank) for rank in (5, 6, 7, 1)],
)
def test_backlog_counters_match_queues_under_every_scheduler(kind, queues, steps):
    sim = Simulator()
    tm = TrafficManager(
        sim,
        port_count=2,
        queues_per_port=queues,
        queue_capacity_bytes=2_000,
        buffer_capacity_bytes=3_000,
        port_rate_gbps=1.0,
        scheduler_factory=_scheduler_factory(kind),
    )
    tm.set_egress_callback(lambda pkt, port: None)
    admitted = set()
    counts = {"transmitted": 0, "displaced": 0}
    mismatches = []

    def check_hook_depth(pkt, port, qid, depth, meta):
        if depth != _port_depth_from_queues(tm.ports[port])[1]:
            mismatches.append((port, depth))

    def on_transmit(pkt, port, qid, depth, meta):
        counts["transmitted"] += 1
        check_hook_depth(pkt, port, qid, depth, meta)

    def on_overflow(pkt, port, qid, depth, meta):
        if pkt.pkt_id in admitted:
            counts["displaced"] += 1

    tm.hooks.on_enqueue = lambda pkt, port, qid, depth, meta: admitted.add(pkt.pkt_id)
    tm.hooks.on_dequeue = check_hook_depth
    tm.hooks.on_transmit = on_transmit
    tm.hooks.on_overflow = on_overflow

    def check():
        assert not mismatches
        for port_obj in tm.ports:
            assert (port_obj.backlog_packets, port_obj.backlog_bytes) == (
                _port_depth_from_queues(port_obj)
            )
            assert tm.port_depth_bytes(port_obj.index) == port_obj.backlog_bytes
        assert tm.buffer.occupancy_bytes == sum(p.backlog_bytes for p in tm.ports)
        queued = sum(p.backlog_packets for p in tm.ports)
        in_service = sum(p.busy for p in tm.ports)
        assert tm.total_enqueued == (
            counts["transmitted"] + queued + in_service + counts["displaced"]
        )

    for step in steps:
        if step[0] == "enqueue":
            _, port, payload, queue_id, priority = step
            pkt = routed_pkt(port=port, payload=payload)
            pkt.queue_id = queue_id
            pkt.priority = priority
            tm.enqueue(pkt)
        elif step[0] == "toggle":
            port = step[1]
            tm.set_port_enabled(port, not tm.ports[port].enabled)
        else:
            sim.run(until_ps=sim.now_ps + step[1])
        check()
    for port_obj in tm.ports:
        tm.set_port_enabled(port_obj.index, True)
    sim.run()
    check()
    assert tm.buffer.occupancy_bytes == 0
