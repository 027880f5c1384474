"""The SUME Event Switch (paper Figure 4, §5).

A single physical P4 pipeline processes *all* events: the Event Merger
gathers newly fired events (enqueue, dequeue, drop, timer, link status,
…) and places them in metadata that flows through the pipeline — riding
on an ingress packet when one is available, or on an injected empty
packet otherwise.  A configurable packet generator and a timer unit
provide packet-generation and periodic events; output queues fire the
buffer events.

Compared to the logical architecture of Figure 2, event handling here
is *asynchronous*: an event waits in the merger until a carrier takes
it through the pipeline, so shared state read by the ingress thread can
be momentarily stale — exactly the bounded-staleness behaviour §4
discusses.  The merger statistics and per-event delivery latencies make
that observable.
"""

from __future__ import annotations

from sys import getrefcount
from typing import List

from repro.arch.base import SwitchBase
from repro.arch.description import SUME_EVENT_SWITCH, ArchitectureDescription
from repro.arch.events import Event, EventType
from repro.arch.generator import GeneratorConfig, PacketGenerator
from repro.arch.merger import EventMerger
from repro.packet.packet import Packet
from repro.pisa.metadata import StandardMetadata
from repro.pisa.pipeline import Pipeline
from repro.sim.kernel import Simulator


class SumeEventSwitch(SwitchBase):
    """Figure 4's SUME Event Switch on a single physical P4 pipeline."""

    def __init__(
        self,
        sim: Simulator,
        description: ArchitectureDescription = SUME_EVENT_SWITCH,
        name: str = "sume",
        merger_slots_per_kind: int = 1,
        merger_queue_capacity: int = 64,
        merger_injection_enabled: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(sim, description, name=name, **kwargs)
        self.pipeline = Pipeline(
            f"{name}.p4",
            self._pipeline_control,
            stage_count=description.pipeline_stages,
            clock_mhz=description.clock_mhz,
        )
        self.merger = EventMerger(
            sim,
            clock_ps=self.pipeline.cycle_ps,
            slots_per_kind=merger_slots_per_kind,
            queue_capacity=merger_queue_capacity,
            injection_enabled=merger_injection_enabled,
        )
        self.merger.set_inject_fn(self._inject_empty_packet)
        self.merger.set_drop_fn(self.bus.drop)
        self.bus.subscribe(self.merger.offer)
        self.generator = PacketGenerator(sim, self.inject_generated)
        self.tm.set_egress_callback(self._after_tm)
        self.recirculations = 0
        self.empty_packets_injected = 0

    # ------------------------------------------------------------------
    # External interface
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, port: int) -> None:
        """Packet arrival: becomes an event carrier through the pipeline."""
        if not self._link_up[port]:
            return
        if self.stalled:
            self.stalled_rx_drops += 1
            return
        self.rx_packets += 1
        pkt.ingress_port = port
        self._enter_pipeline(pkt, EventType.INGRESS_PACKET)

    def inject_generated(self, pkt: Packet) -> None:
        """Generator/program-built packets enter as GENERATED_PACKET."""
        pkt.generated = True
        self._enter_pipeline(pkt, EventType.GENERATED_PACKET)

    def configure_generator(self, config: GeneratorConfig) -> None:
        """Install a packet-generator stream (control-plane operation)."""
        self.generator.configure(config)

    # ------------------------------------------------------------------
    # Pipeline entry and traversal
    # ------------------------------------------------------------------
    def _enter_pipeline(self, pkt: Packet, kind: EventType) -> None:
        """Attach pending events to ``pkt`` and start its traversal."""
        events = self.merger.take_for_carrier()
        self.sim.call_after(
            self.pipeline.latency_ps, self._pipeline_exit, pkt, kind, events
        )

    def _inject_empty_packet(self, events: List[Event]) -> None:
        """The merger's idle-cycle injection: an empty carrier enters.

        On hardware this is a 64B frame of ethertype
        ``EtherType.EVENT_METADATA``.  Handlers receive only the Event
        records and have no way to set an egress spec, so the carrier
        always dies silently after delivery; the model therefore builds
        no :class:`Packet` for it and schedules just the record delivery
        at the carrier's pipeline exit.
        """
        self.empty_packets_injected += 1
        self.sim.call_after(self.pipeline.latency_ps, self._carrier_exit, events)

    def _carrier_exit(self, events: List[Event]) -> None:
        self.pipeline.packets_processed += 1
        self._deliver(events)

    def _deliver(self, events: List[Event]) -> None:
        """Run the handlers of the records a carrier brought through.

        With nobody watching, only the handler and the bus's handled
        counter are observable, so the kind's bound runner runs inline;
        with observers attached each record takes the bus's own
        :meth:`~repro.arch.bus.EventBus.dispatch`, which reports its
        staleness — merger wait plus pipeline traversal.
        """
        bus = self.bus
        handled = bus.handled
        runners = self._event_handlers
        for event in events:
            if bus._observers:
                bus.dispatch(event)
                continue
            run = runners.get(event.kind)
            if run is not None:
                run(event)
                handled[event.kind] += 1

    def _pipeline_exit(
        self, pkt: Packet, kind: EventType, events: List[Event]
    ) -> None:
        self.pipeline.packets_processed += 1
        # Event handlers run first (their metadata words sit ahead of
        # the packet's own headers in the physical layout), then the
        # packet event's handler.
        if events:
            self._deliver(events)
        meta = self.meta_pool.acquire(
            ingress_port=pkt.ingress_port,
            packet_length=pkt.total_len,
            ingress_timestamp_ps=self.sim.now_ps,
        )
        if pkt.recirculated and kind is EventType.INGRESS_PACKET:
            kind = EventType.RECIRCULATED_PACKET
        self._dispatch_packet_event(kind, pkt, meta)
        self._steer(pkt, meta)
        if getrefcount(meta) == 2:
            # Only this frame still holds the shell (handlers kept no
            # reference), so it can be recycled.
            self.meta_pool.release(meta)

    def _pipeline_for_kind(self, kind: EventType):
        return self.pipeline

    def _pipeline_control(self, pkt: Packet, meta: StandardMetadata) -> None:
        # Dispatch happens in _pipeline_exit; the Pipeline object exists
        # for latency and resource accounting.
        return None

    def _to_ingress(self, pkt: Packet) -> None:
        self._enter_pipeline(pkt, EventType.INGRESS_PACKET)

    def _after_tm(self, pkt: Packet, port: int) -> None:
        """Serialized out of the output queues: transmit on the wire."""
        self._transmit(pkt, port)
