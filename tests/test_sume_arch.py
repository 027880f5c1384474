"""Unit tests for the SUME Event Switch (paper Figure 4)."""


import dataclasses

from repro.arch.description import FULL_EVENT_SWITCH
from repro.arch.events import EventType
from repro.arch.generator import GeneratorConfig
from repro.arch.program import P4Program, handler
from repro.arch.sume import SumeEventSwitch
from repro.experiments.microburst_exp import (
    finish_event_driven,
    prepare_event_driven,
)
from repro.obs import EventCounters
from repro.packet import packet as packet_module
from repro.packet.builder import make_udp_packet
from repro.pisa.externs.register import SharedRegister
from repro.sim.kernel import Simulator
from repro.sim.shard import attach_recorders
from repro.sim.units import MILLISECONDS


class EventSink(P4Program):
    """Forward on port 1; log every event delivery time."""

    def __init__(self):
        super().__init__()
        self.qsize = SharedRegister(4, name="qsize")
        self.deliveries = []  # (kind, fired_ps, handled_ps)

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        meta.send_to_port(1)

    @handler(EventType.ENQUEUE)
    def on_enqueue(self, ctx, event):
        self.deliveries.append(("enq", event.time_ps, ctx.now_ps))
        self.qsize.add(0, event.meta["pkt_len"])  # architecture-provided

    @handler(EventType.DEQUEUE)
    def on_dequeue(self, ctx, event):
        self.deliveries.append(("deq", event.time_ps, ctx.now_ps))
        self.qsize.sub(0, event.meta["pkt_len"])

    @handler(EventType.TIMER)
    def on_timer(self, ctx, event):
        self.deliveries.append(("timer", event.time_ps, ctx.now_ps))

    @handler(EventType.LINK_STATUS)
    def on_link(self, ctx, event):
        self.deliveries.append(("link", event.time_ps, ctx.now_ps))


def make_switch(**kwargs):
    sim = Simulator()
    switch = SumeEventSwitch(sim, **kwargs)
    program = EventSink()
    switch.load_program(program)
    switch.set_tx_callback(lambda pkt, port: None)
    return sim, switch, program


def test_single_pipeline_carries_events():
    sim, switch, program = make_switch()
    switch.receive(make_udp_packet(1, 2, payload_len=436), 0)
    sim.run()
    kinds = [kind for kind, _f, _h in program.deliveries]
    assert kinds == ["enq", "deq"]
    assert program.qsize.read(0) == 0


def test_event_delivery_is_asynchronous():
    """Unlike the logical model, handlers run after the merger wait."""
    sim, switch, program = make_switch()
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    for _kind, fired, handled in program.deliveries:
        assert handled > fired  # merger wait + pipeline latency


def test_empty_packet_injection_for_idle_events():
    sim, switch, program = make_switch()
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    # No follow-up packets arrived, so the events rode empty carriers
    # (enqueue + dequeue + packet-transmitted; the program handles the
    # first two).
    assert switch.empty_packets_injected > 0
    assert switch.merger.stats.injected_events == switch.merger.stats.offered == 3
    assert len(program.deliveries) == 2


def test_event_carriers_die_silently():
    sim, switch, program = make_switch()
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append(pkt))
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    # Only the data packet leaves; empty carriers are consumed, and
    # their disappearance is not billed as a program drop.
    assert len(sent) == 1
    assert switch.dropped_by_program == 0


def test_timer_unit_feeds_merger():
    sim, switch, program = make_switch()
    switch.configure_timer(1, 1_000_000)
    sim.run(until_ps=2_500_000)
    timers = [d for d in program.deliveries if d[0] == "timer"]
    assert len(timers) == 2


def test_packet_generator_fires_generated_events():
    class GenProgram(EventSink):
        def __init__(self):
            super().__init__()
            self.generated = 0

        @handler(EventType.GENERATED_PACKET)
        def on_generated(self, ctx, pkt, meta):
            self.generated += 1
            meta.send_to_port(0)

    sim = Simulator()
    switch = SumeEventSwitch(sim)
    program = GenProgram()
    switch.load_program(program)
    out = []
    switch.set_tx_callback(lambda pkt, port: out.append(port))
    switch.configure_generator(
        GeneratorConfig(
            stream_id=0,
            period_ps=1_000_000,
            template=lambda now: make_udp_packet(9, 9, ts_ps=now),
        )
    )
    sim.run(until_ps=3_500_000)
    assert program.generated == 3
    assert out == [0, 0, 0]
    assert switch.generator.generated_count == 3


def test_link_status_event():
    sim, switch, program = make_switch()
    switch.set_link_status(2, False)
    sim.run()
    links = [d for d in program.deliveries if d[0] == "link"]
    assert len(links) == 1
    # Repeating the same status is not a change.
    switch.set_link_status(2, False)
    sim.run()
    assert len([d for d in program.deliveries if d[0] == "link"]) == 1


def test_recirculation_on_sume():
    class Recirc(EventSink):
        def __init__(self):
            super().__init__()
            self.recirc_seen = 0
            self.armed = True

        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            if self.armed:
                self.armed = False
                meta.request_recirculation()
                return
            meta.send_to_port(1)

        @handler(EventType.RECIRCULATED_PACKET)
        def recirculated(self, ctx, pkt, meta):
            self.recirc_seen += 1
            meta.send_to_port(1)

    sim = Simulator()
    switch = SumeEventSwitch(sim)
    program = Recirc()
    switch.load_program(program)
    switch.set_tx_callback(lambda pkt, port: None)
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert program.recirc_seen == 1
    assert switch.recirculations == 1


def test_unsupported_events_suppressed_on_faithful_sume():
    """The §5 SUME switch has no underflow events; they are suppressed."""
    sim, switch, program = make_switch()
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert switch.events_suppressed[EventType.BUFFER_UNDERFLOW] == 1
    assert switch.events_fired[EventType.BUFFER_UNDERFLOW] == 0


def test_full_description_enables_underflow():
    class UnderflowWatcher(EventSink):
        def __init__(self):
            super().__init__()
            self.underflows = 0

        @handler(EventType.BUFFER_UNDERFLOW)
        def on_underflow(self, ctx, event):
            self.underflows += 1

    sim = Simulator()
    switch = SumeEventSwitch(sim, description=FULL_EVENT_SWITCH)
    program = UnderflowWatcher()
    switch.load_program(program)
    switch.set_tx_callback(lambda pkt, port: None)
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    assert program.underflows == 1


def test_injected_carriers_are_counted_not_allocated():
    sim, switch, program = make_switch()
    first_id = next(packet_module._packet_ids)
    switch.receive(make_udp_packet(1, 2), 0)
    sim.run()
    injected = switch.empty_packets_injected
    assert injected > 0
    assert injected == switch.merger.stats.injected_packets
    # Every carrier is one pipeline traversal, like the data packet.
    assert switch.pipeline.packets_processed == injected + 1
    # Only the data packet took a packet id: carriers are not Packets.
    assert next(packet_module._packet_ids) == first_id + 2


# ----------------------------------------------------------------------
# Observer equivalence: attaching an observer mid-run changes nothing
# ----------------------------------------------------------------------
def bus_counts(switch):
    bus = switch.bus
    return {
        name: {kind.value: n for kind, n in getattr(bus, name).items() if n}
        for name in ("fired", "suppressed", "handled", "dropped")
    }


def attach_counters(switches):
    """One EventCounters on every bus, plus each bus's counts at attach."""
    counters = EventCounters()
    baseline = {}
    for name, switch in switches.items():
        switch.bus.add_observer(counters)
        baseline[name] = bus_counts(switch)
    return counters, baseline


def assert_counters_saw_the_rest(counters, baseline, switches):
    """The observer's counts are exactly the bus deltas since attach."""
    totals = {name: {} for name in ("fired", "suppressed", "handled", "dropped")}
    for name, switch in switches.items():
        after = bus_counts(switch)
        for field, kinds in after.items():
            for kind, n in kinds.items():
                delta = n - baseline[name][field].get(kind, 0)
                totals[field][kind] = totals[field].get(kind, 0) + delta
    seen = counters.as_dict()
    for kind, row in seen.items():
        assert row["published"] == totals["fired"].get(kind, 0) + totals[
            "suppressed"
        ].get(kind, 0)
        assert row["suppressed"] == totals["suppressed"].get(kind, 0)
        assert row["handled"] == totals["handled"].get(kind, 0)
        assert row["dropped"] == totals["dropped"].get(kind, 0)


def run_microburst(observe: bool):
    setup = prepare_event_driven(
        duration_ps=2 * MILLISECONDS, background_senders=3, seed=1
    )
    network = setup.network
    recorders = attach_recorders(network)
    counters = None
    if observe:
        network.run(until_ps=setup.duration_ps // 2)
        counters, baseline = attach_counters(network.switches)
    result = finish_event_driven(setup)
    if observe:
        assert counters.total_published() > 0
        assert_counters_saw_the_rest(counters, baseline, network.switches)
    return {
        "arrivals": {name: rec.arrivals for name, rec in recorders.items()},
        "result": dataclasses.asdict(result),
        "detections": [
            dataclasses.astuple(d) for d in setup.detector.detections
        ],
        "merger": {
            name: dataclasses.asdict(sw.merger.stats)
            for name, sw in network.switches.items()
        },
        "bus": {name: bus_counts(sw) for name, sw in network.switches.items()},
    }


def test_microburst_identical_with_observer_attached_mid_run():
    bare = run_microburst(observe=False)
    observed = run_microburst(observe=True)
    assert bare["merger"]["s0"]["injected_packets"] > 0
    assert bare["result"]["detections_total"] > 0
    assert observed == bare


class FullEventRecorder(P4Program):
    """Forward on port 1; record every buffer and transmit event."""

    def __init__(self):
        super().__init__()
        self.log = []

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        meta.send_to_port(1)

    def record(self, ctx, event):
        self.log.append((event.kind.value, event.time_ps, ctx.now_ps, event.meta))

    @handler(EventType.ENQUEUE)
    def on_enqueue(self, ctx, event):
        self.record(ctx, event)

    @handler(EventType.DEQUEUE)
    def on_dequeue(self, ctx, event):
        self.record(ctx, event)

    @handler(EventType.BUFFER_OVERFLOW)
    def on_overflow(self, ctx, event):
        self.record(ctx, event)

    @handler(EventType.BUFFER_UNDERFLOW)
    def on_underflow(self, ctx, event):
        self.record(ctx, event)

    @handler(EventType.PACKET_TRANSMITTED)
    def on_transmit(self, ctx, event):
        self.record(ctx, event)


def run_full_event_switch(observe: bool):
    sim = Simulator()
    switch = SumeEventSwitch(
        sim,
        description=FULL_EVENT_SWITCH,
        queue_capacity_bytes=2_000,
        merger_queue_capacity=2,
    )
    program = FullEventRecorder()
    switch.load_program(program)
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append((sim.now_ps, pkt.total_len)))
    # Three bursts of back-to-back 500B frames: each overflows the 2 kB
    # queue and the 2-deep merger queues, and drains to underflow.
    for burst in range(3):
        for i in range(8):
            sim.call_at(
                burst * 20_000_000 + i * 1_000,
                switch.receive,
                make_udp_packet(1, 2, payload_len=458),
                0,
            )
    counters = None
    if observe:
        sim.run(until_ps=25_000_000)
        counters, baseline = attach_counters({"sw": switch})
    sim.run()
    if observe:
        assert_counters_saw_the_rest(counters, baseline, {"sw": switch})
    return {
        "sent": sent,
        "log": program.log,
        "merger": dataclasses.asdict(switch.merger.stats),
        "bus": bus_counts(switch),
        "tm": (switch.tm.drops_overflow, switch.tm.total_dequeued),
    }


def test_full_event_switch_identical_with_observer_attached_mid_run():
    bare = run_full_event_switch(observe=False)
    observed = run_full_event_switch(observe=True)
    kinds = {kind for kind, *_ in bare["log"]}
    assert kinds == {
        "buffer_enqueue",
        "buffer_dequeue",
        "buffer_overflow",
        "buffer_underflow",
        "packet_transmitted",
    }
    assert bare["merger"]["dropped"] > 0
    assert observed == bare
