"""Unit tests for the baseline PSA switch (paper Figure 1)."""

import hashlib

import pytest

from repro.arch.baseline import BaselinePsaSwitch
from repro.arch.description import UnsupportedEventError
from repro.arch.events import EventType
from repro.arch.program import P4Program, handler
from repro.packet.builder import make_udp_packet
from repro.packet.headers import Ipv4
from repro.pisa.externs.register import SharedRegister
from repro.sim.kernel import Simulator


class Forwarder(P4Program):
    """Forward everything out a fixed port; count egress runs."""

    def __init__(self, out_port=1, recirculate_once=False):
        super().__init__()
        self.out_port = out_port
        self.recirculate_once = recirculate_once
        self.ingress_runs = 0
        self.egress_runs = 0
        self.recirc_runs = 0

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        self.ingress_runs += 1
        if self.recirculate_once:
            self.recirculate_once = False
            meta.request_recirculation()
            return
        meta.send_to_port(self.out_port)

    @handler(EventType.RECIRCULATED_PACKET)
    def recirculated(self, ctx, pkt, meta):
        self.recirc_runs += 1
        meta.send_to_port(self.out_port)

    @handler(EventType.EGRESS_PACKET)
    def egress(self, ctx, pkt, meta):
        self.egress_runs += 1


def make_switch(program=None):
    sim = Simulator()
    switch = BaselinePsaSwitch(sim)
    if program is not None:
        switch.load_program(program)
    return sim, switch


def test_forwarding_through_both_pipelines():
    program = Forwarder(out_port=2)
    sim, switch = make_switch(program)
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append((pkt.pkt_id, port)))
    pkt = make_udp_packet(1, 2)
    switch.receive(pkt, 0)
    sim.run()
    assert sent == [(pkt.pkt_id, 2)]
    assert program.ingress_runs == 1
    assert program.egress_runs == 1
    assert switch.rx_packets == 1


def test_pipeline_latency_is_applied():
    program = Forwarder()
    sim, switch = make_switch(program)
    times = []
    switch.set_tx_callback(lambda pkt, port: times.append(sim.now_ps))
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    # Two pipeline traversals (8 stages @ 5 ns) plus serialization.
    assert times[0] >= 2 * switch.ingress_pipeline.latency_ps


def test_drop_in_ingress():
    class Dropper(P4Program):
        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            meta.drop()

    sim, switch = make_switch(Dropper())
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append(pkt))
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert sent == []
    assert switch.dropped_by_program == 1


def test_no_egress_spec_means_drop():
    class Silent(P4Program):
        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            pass  # never sets egress_spec

    sim, switch = make_switch(Silent())
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append(pkt))
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert sent == []
    assert switch.dropped_by_program == 1


def test_recirculation_runs_recirculated_handler():
    program = Forwarder(recirculate_once=True)
    sim, switch = make_switch(program)
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append(pkt))
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert program.recirc_runs == 1
    assert switch.recirculations == 1
    assert len(sent) == 1


def test_recirculation_loop_is_bounded():
    class Spinner(P4Program):
        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            meta.request_recirculation()

        @handler(EventType.RECIRCULATED_PACKET)
        def recirc(self, ctx, pkt, meta):
            meta.request_recirculation()

    sim, switch = make_switch(Spinner())
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert switch.recirculations == BaselinePsaSwitch.MAX_RECIRCULATIONS
    assert switch.dropped_by_program == 1


def test_cpu_punt():
    class Punter(P4Program):
        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            meta.send_to_cpu()

    sim, switch = make_switch(Punter())
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert len(switch.cpu_notifications) == 1


def test_event_program_rejected():
    class NeedsEvents(P4Program):
        @handler(EventType.ENQUEUE)
        def on_enqueue(self, ctx, event):
            pass

    sim, switch = make_switch()
    with pytest.raises(UnsupportedEventError):
        switch.load_program(NeedsEvents())


def test_shared_state_rejected_on_single_threaded_model():
    class SharedState(P4Program):
        def __init__(self):
            super().__init__()
            self.reg = SharedRegister(4, name="shared")

        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            pass

    sim, switch = make_switch()
    with pytest.raises(UnsupportedEventError) as excinfo:
        switch.load_program(SharedState())
    assert "shared" in str(excinfo.value)


def test_tm_events_are_suppressed_not_delivered():
    program = Forwarder()
    sim, switch = make_switch(program)
    switch.set_tx_callback(lambda pkt, port: None)
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert switch.events_suppressed[EventType.ENQUEUE] == 1
    assert switch.events_suppressed[EventType.DEQUEUE] == 1
    assert switch.events_fired[EventType.ENQUEUE] == 0


def test_dead_link_drops_arrivals():
    program = Forwarder()
    sim, switch = make_switch(program)
    switch.set_link_status(0, False)
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert switch.rx_packets == 0


def test_timer_unsupported():
    sim, switch = make_switch(Forwarder())
    with pytest.raises(UnsupportedEventError):
        switch.configure_timer(0, 1_000)


def test_control_event_unsupported():
    sim, switch = make_switch(Forwarder())
    with pytest.raises(UnsupportedEventError):
        switch.control_event({"x": 1})


def test_require_program():
    sim, switch = make_switch()
    with pytest.raises(RuntimeError):
        switch.require_program()


# ----------------------------------------------------------------------
# The egress walk: skipped work must not show in any counter
# ----------------------------------------------------------------------
class _IngressOnly(P4Program):
    """Drops every third packet and recirculates every fourth at ingress;
    no egress handler, so the egress walk is empty."""

    def __init__(self):
        super().__init__()
        self.seen = 0

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        self.seen += 1
        if self.seen % 3 == 0:
            meta.drop()
        elif self.seen % 4 == 0:
            meta.request_recirculation()
        else:
            meta.send_to_port(1 + self.seen % 2)

    @handler(EventType.RECIRCULATED_PACKET)
    def recirculated(self, ctx, pkt, meta):
        # Marks the second pass in the header, so every decision stays a
        # function of the bits the flow cache keys on.
        pkt.get(Ipv4).set(dscp=1)
        meta.send_to_port(3)


class _EgressDrops(_IngressOnly):
    @handler(EventType.EGRESS_PACKET)
    def egress(self, ctx, pkt, meta):
        if pkt.payload_len % 2:
            meta.drop()


class _EgressRecirculates(_IngressOnly):
    @handler(EventType.EGRESS_PACKET)
    def egress(self, ctx, pkt, meta):
        if pkt.payload_len % 5 == 0 and not pkt.get(Ipv4).dscp:
            meta.request_recirculation()


#: Every kind a baseline switch can fire, in the order outcomes list them.
_KINDS = (
    EventType.INGRESS_PACKET,
    EventType.EGRESS_PACKET,
    EventType.RECIRCULATED_PACKET,
    EventType.ENQUEUE,
    EventType.DEQUEUE,
    EventType.BUFFER_OVERFLOW,
    EventType.BUFFER_UNDERFLOW,
    EventType.PACKET_TRANSMITTED,
)


def _egress_run(program_cls, observe_at_ps=None):
    """Twenty packets through one switch; the outcome in run-stable terms
    (transmissions as packet ordinals, not process-global ids, hashed)."""
    from repro.obs import EventCounters

    sim, switch = make_switch(program_cls())
    ordinal = {}
    sent = []
    switch.set_tx_callback(
        lambda pkt, port: sent.append((ordinal[pkt.pkt_id], port, sim.now_ps))
    )
    for i in range(20):
        pkt = make_udp_packet(1 + i % 4, 2, payload_len=100 + i)
        ordinal[pkt.pkt_id] = i
        sim.call_at(1_000 + i * 50_000, switch.receive, pkt, 0)
    counters = EventCounters()
    if observe_at_ps is not None:
        sim.call_at(observe_at_ps, switch.bus.add_observer, counters)
    sim.run()

    def kinds(counts):
        assert not any(counts[kind] for kind in EventType if kind not in _KINDS)
        return tuple(counts[kind] for kind in _KINDS)

    return {
        "sent": hashlib.sha256(repr(sent).encode()).hexdigest()[:16],
        "fired": kinds(switch.bus.fired),
        "handled": kinds(switch.bus.handled),
        "suppressed": kinds(switch.bus.suppressed),
        "ingress": switch.ingress_pipeline.packets_processed,
        "egress": switch.egress_pipeline.packets_processed,
        "dropped_by_program": switch.dropped_by_program,
        "recirculations": switch.recirculations,
        "observed": [kinds(counters.published), kinds(counters.handled)],
    }


#: Outcomes recorded when every egress walk acquired metadata and ran
#: the dispatch: a walk that is skipped must leave all of them as-is.
_EGRESS_GOLDEN = {
    ("_IngressOnly", None): {
        "sent": "fda4fe4a8a369280",
        "fired": (20, 14, 4, 0, 0, 0, 0, 0),
        "handled": (20, 0, 4, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 14, 14, 0, 14, 14),
        "ingress": 24,
        "egress": 14,
        "dropped_by_program": 6,
        "recirculations": 4,
        "observed": [(0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)],
    },
    ("_IngressOnly", 500_000): {
        "sent": "fda4fe4a8a369280",
        "fired": (20, 14, 4, 0, 0, 0, 0, 0),
        "handled": (20, 0, 4, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 14, 14, 0, 14, 14),
        "ingress": 24,
        "egress": 14,
        "dropped_by_program": 6,
        "recirculations": 4,
        "observed": [(10, 10, 2, 7, 7, 0, 7, 10), (10, 0, 2, 0, 0, 0, 0, 0)],
    },
    ("_EgressDrops", None): {
        "sent": "50ebd90a5a972a5b",
        "fired": (20, 14, 4, 0, 0, 0, 0, 0),
        "handled": (20, 14, 4, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 14, 14, 0, 14, 14),
        "ingress": 24,
        "egress": 14,
        "dropped_by_program": 13,
        "recirculations": 4,
        "observed": [(0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)],
    },
    ("_EgressDrops", 500_000): {
        "sent": "50ebd90a5a972a5b",
        "fired": (20, 14, 4, 0, 0, 0, 0, 0),
        "handled": (20, 14, 4, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 14, 14, 0, 14, 14),
        "ingress": 24,
        "egress": 14,
        "dropped_by_program": 13,
        "recirculations": 4,
        "observed": [(10, 10, 2, 7, 7, 0, 7, 10), (10, 10, 2, 0, 0, 0, 0, 0)],
    },
    ("_EgressRecirculates", None): {
        "sent": "ac766fd428c6b0c6",
        "fired": (20, 16, 6, 0, 0, 0, 0, 0),
        "handled": (20, 16, 6, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 16, 16, 0, 16, 16),
        "ingress": 26,
        "egress": 16,
        "dropped_by_program": 6,
        "recirculations": 6,
        "observed": [(0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)],
    },
    ("_EgressRecirculates", 500_000): {
        "sent": "ac766fd428c6b0c6",
        "fired": (20, 16, 6, 0, 0, 0, 0, 0),
        "handled": (20, 16, 6, 0, 0, 0, 0, 0),
        "suppressed": (0, 0, 0, 16, 16, 0, 16, 16),
        "ingress": 26,
        "egress": 16,
        "dropped_by_program": 6,
        "recirculations": 6,
        "observed": [(10, 11, 3, 8, 8, 0, 8, 11), (10, 11, 3, 0, 0, 0, 0, 0)],
    },
}


@pytest.mark.parametrize("observe_at_ps", [None, 500_000])
@pytest.mark.parametrize(
    "program_cls", [_IngressOnly, _EgressDrops, _EgressRecirculates]
)
def test_egress_walk_counters_match_golden(program_cls, observe_at_ps):
    outcome = _egress_run(program_cls, observe_at_ps)
    assert outcome == _EGRESS_GOLDEN[program_cls.__name__, observe_at_ps]


def test_empty_egress_walk_reads_no_queue_depth(monkeypatch):
    # With no egress handler and nobody observing, the walk's metadata
    # (deq_qdepth_bytes included) is never built.
    from repro.tm.traffic_manager import TrafficManager

    reads = []
    depth = TrafficManager.port_depth_bytes
    monkeypatch.setattr(
        TrafficManager,
        "port_depth_bytes",
        lambda tm, port: reads.append(port) or depth(tm, port),
    )
    _egress_run(_IngressOnly)
    assert reads == []
    _egress_run(_EgressDrops)
    assert len(reads) == 14
