"""The baseline Portable Switch Architecture (paper Figure 1).

Two P4-programmable pipelines — ingress and egress — around a traffic
manager.  The programming model is synchronous packet-by-packet: the
only events a program may handle are ingress, egress, and recirculated
packet events.  The traffic manager's enqueue/dequeue/drop transitions
happen, of course, but the architecture gives the program *no way to
observe them* — this is the gap the paper's event-driven architectures
close.
"""

from __future__ import annotations

from sys import getrefcount
from typing import Dict, List, Optional

from repro.arch.base import SwitchBase
from repro.arch.description import BASELINE_PSA, ArchitectureDescription
from repro.arch.events import EventType
from repro.packet.packet import Packet
from repro.pisa.metadata import StandardMetadata
from repro.pisa.pipeline import Pipeline
from repro.sim.kernel import Simulator

_EGRESS = EventType.EGRESS_PACKET


class BaselinePsaSwitch(SwitchBase):
    """Figure 1's PSA: ingress pipeline → traffic manager → egress pipeline."""

    #: Safety bound on recirculations per packet, as real targets impose.
    MAX_RECIRCULATIONS = 16

    def __init__(
        self,
        sim: Simulator,
        description: ArchitectureDescription = BASELINE_PSA,
        name: str = "psa",
        **kwargs,
    ) -> None:
        super().__init__(sim, description, name=name, **kwargs)
        self.ingress_pipeline = Pipeline(
            f"{name}.ingress",
            self._run_ingress,
            stage_count=description.pipeline_stages,
            clock_mhz=description.clock_mhz,
        )
        self.egress_pipeline = Pipeline(
            f"{name}.egress",
            self._run_egress,
            stage_count=description.pipeline_stages,
            clock_mhz=description.clock_mhz,
        )
        self.tm.set_egress_callback(self._after_tm)
        self.recirculations = 0

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, port: int) -> None:
        """Packet arrival: parse, then enter the ingress pipeline."""
        if not self._link_up[port]:
            return  # arrivals on a dead link are lost at the MAC
        if self.stalled:
            self.stalled_rx_drops += 1
            return
        fastpath = self.flow_fastpath
        key = None
        if fastpath is not None and not pkt.recirculated and not pkt.generated:
            key = fastpath.handle(pkt, port)
            if key is None:
                # The whole multi-hop delivery was fused into one event;
                # all per-hop bookkeeping (rx_packets included) lands at
                # arrival.
                return
        self.rx_packets += 1
        pkt.ingress_port = port
        # A declined packet's flow key rides along to its ingress walk.
        self.sim.call_after(
            self.ingress_pipeline.latency_ps, self._ingress_done, pkt, port, key
        )

    def inject_generated(self, pkt: Packet) -> None:
        """Baseline PSA has no data-plane generator; the description of a
        Tofino-like target may still expose GENERATED_PACKET via its
        control-plane-configured generator (paper §6)."""
        if not self.description.supports(EventType.GENERATED_PACKET):
            raise NotImplementedError(
                f"architecture {self.description.name!r} cannot generate packets"
            )
        pkt.generated = True
        self.sim.call_after(
            self.ingress_pipeline.latency_ps, self._ingress_done, pkt, pkt.ingress_port
        )

    def _ingress_done(
        self, pkt: Packet, port: int, key: Optional[tuple] = None
    ) -> None:
        """The ingress walk, after the pipeline latency.  ``key`` is the
        packet's ingress flow key when the fastpath declined it; other
        packets (materialized, recirculated, generated, or arriving
        with no fastpath) carry none."""
        meta = self.meta_pool.acquire(
            ingress_port=port,
            packet_length=pkt.total_len,
            ingress_timestamp_ps=self.sim.now_ps,
        )
        self._ingress_key = key
        self.ingress_pipeline.process(pkt, meta)
        self._steer(pkt, meta)
        if getrefcount(meta) == 2:
            self.meta_pool.release(meta)

    def _pipeline_for_kind(self, kind: EventType):
        if kind is EventType.EGRESS_PACKET:
            return self.egress_pipeline
        return self.ingress_pipeline

    def _run_ingress(self, pkt: Packet, meta: StandardMetadata) -> None:
        if pkt.recirculated:
            kind = EventType.RECIRCULATED_PACKET
        elif pkt.generated:
            kind = EventType.GENERATED_PACKET
        else:
            kind = EventType.INGRESS_PACKET
        self._dispatch_packet_event(kind, pkt, meta)

    def _steer(self, pkt: Packet, meta: StandardMetadata) -> None:
        if meta.egress_spec is None or meta.dropped:
            self.dropped_by_program += 1
            return
        if meta.to_cpu:
            self.notify_control_plane({"pkt_id": pkt.pkt_id, "reason": 0})
            return
        if meta.recirculate:
            self._recirculate(pkt)
            return
        pkt.egress_port = meta.egress_spec
        pkt.queue_id = meta.queue_id
        pkt.priority = meta.priority
        pkt.meta["enq_meta"] = meta.enq_meta
        pkt.meta["deq_meta"] = meta.deq_meta
        self.tm.enqueue(pkt)

    def _recirculate(self, pkt: Packet) -> None:
        count = pkt.meta.get("recirc_count", 0)
        if count >= self.MAX_RECIRCULATIONS:
            self.dropped_by_program += 1
            return
        self.recirculations += 1
        pkt.meta["recirc_count"] = count + 1
        pkt.recirculated = True
        self.sim.call_after(
            self.ingress_pipeline.latency_ps, self._ingress_done, pkt, pkt.ingress_port
        )

    def _after_tm(self, pkt: Packet, port: int) -> None:
        """Dequeued and serialized: run the egress pipeline, then transmit."""
        runners = self._runners
        if (
            runners is not None
            and _EGRESS not in runners
            and not self.bus._observers
        ):
            # An empty egress walk nobody watches: only its counters are
            # observable, so skip the metadata and the queue depth.
            self.egress_pipeline.packets_processed += 1
            self.bus.fired[_EGRESS] += 1
            self.sim.call_after(
                self.egress_pipeline.latency_ps, self._transmit, pkt, port
            )
            return
        meta = self.meta_pool.acquire(
            ingress_port=pkt.ingress_port,
            egress_port=port,
            packet_length=pkt.total_len,
            egress_timestamp_ps=self.sim.now_ps,
            deq_qdepth_bytes=self.tm.port_depth_bytes(port),
        )
        meta.egress_spec = port
        self.egress_pipeline.process(pkt, meta)
        try:
            if meta.dropped:
                self.dropped_by_program += 1
                return
            if meta.recirculate:
                self._recirculate(pkt)
                return
            self.sim.call_after(
                self.egress_pipeline.latency_ps, self._transmit, pkt, port
            )
        finally:
            if getrefcount(meta) == 2:
                self.meta_pool.release(meta)

    def _run_egress(self, pkt: Packet, meta: StandardMetadata) -> None:
        self._dispatch_packet_event(EventType.EGRESS_PACKET, pkt, meta)

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def state_summary(self) -> List[Dict[str, object]]:
        """Store manifest plus per-pipeline throughput rows."""
        rows = super().state_summary()
        for pipeline in (self.ingress_pipeline, self.egress_pipeline):
            rows.append(
                {
                    "name": pipeline.name,
                    "kind": "pipeline",
                    "size": pipeline.stage_count,
                    "default": 0,
                    "populated": pipeline.packets_processed,
                }
            )
        return rows
