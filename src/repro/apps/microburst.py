"""Microburst culprit detection — the paper's §2 worked example.

A faithful port of ``microburst.p4``:

* one ``shared_register`` (``flowBufSize_reg``) tracks per-flow buffer
  occupancy,
* the **ingress** control hashes ``ip.src ++ ip.dst`` into a flow id,
  initializes the enqueue/dequeue metadata the packet carries, reads the
  flow's occupancy, and flags a *microburst culprit* when it exceeds
  ``FLOW_THRESH``,
* the **enqueue** handler increments the flow's occupancy by the packet
  length; the **dequeue** handler decrements it.

Detection therefore happens *in the ingress pipeline, before the packet
is enqueued* — which is what lets the program take corrective action
(drop, deprioritize, or notify) on the culprit's own packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.common import ForwardingProgram
from repro.arch.events import Event, EventType
from repro.arch.program import ProgramContext, handler
from repro.packet.hashing import ip_pair_hash
from repro.packet.headers import Ipv4
from repro.packet.packet import Packet
from repro.pisa.externs.register import SharedRegister
from repro.pisa.externs.sketch import CountMinSketch
from repro.pisa.metadata import StandardMetadata


@dataclass
class Detection:
    """One culprit detection: when, which flow id, at what occupancy."""

    time_ps: int
    flow_id: int
    occupancy_bytes: int


class MicroburstDetector(ForwardingProgram):
    """The event-driven microburst detector of ``microburst.p4``.

    ``action`` selects the corrective measure on detection: ``"none"``
    records only, ``"drop"`` drops the culprit's packet, ``"deprioritize"``
    lowers its scheduling priority.
    """

    name = "microburst"

    def __init__(
        self,
        num_regs: int = 1024,
        flow_thresh_bytes: int = 8_000,
        action: str = "none",
    ) -> None:
        super().__init__()
        if num_regs <= 0:
            raise ValueError(f"register count must be positive, got {num_regs}")
        if flow_thresh_bytes <= 0:
            raise ValueError(f"threshold must be positive, got {flow_thresh_bytes}")
        if action not in ("none", "drop", "deprioritize"):
            raise ValueError(f"unknown corrective action {action!r}")
        self.flow_buf_size = SharedRegister(
            num_regs, width_bits=32, name="flowBufSize_reg"
        )
        self.flow_thresh_bytes = flow_thresh_bytes
        self.action = action
        self.detections: List[Detection] = []
        self.packets_seen = 0

    # ------------------------------------------------------------------
    # Ingress packet event (microburst.p4's Ingress control)
    # ------------------------------------------------------------------
    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx: ProgramContext, pkt: Packet, meta: StandardMetadata) -> None:
        self.packets_seen += 1
        ip = pkt.get(Ipv4)
        if ip is None:
            meta.drop()
            return
        # compute flowID = hash(hdr.ip.src ++ hdr.ip.dst)
        flow_id = ip_pair_hash(ip.src, ip.dst, self.flow_buf_size.size)
        # initialize enq & deq metadata for this pkt
        pkt_len = pkt.total_len
        meta.enq_meta["flowID"] = flow_id
        meta.enq_meta["pkt_len"] = pkt_len
        meta.deq_meta["flowID"] = flow_id
        meta.deq_meta["pkt_len"] = pkt_len
        # read buffer occupancy of this flow
        buf_size = self.flow_buf_size.read(flow_id)
        # detect microburst
        if buf_size > self.flow_thresh_bytes:
            self.detections.append(Detection(ctx.now_ps, flow_id, buf_size))
            if self.action == "drop":
                meta.drop()
                return
            if self.action == "deprioritize":
                meta.priority = 7
                meta.queue_id = 1
        self.forward_by_ip(pkt, meta)

    # ------------------------------------------------------------------
    # Enqueue event (microburst.p4's Enqueue control)
    # ------------------------------------------------------------------
    @handler(EventType.ENQUEUE)
    def on_enqueue(self, ctx: ProgramContext, event: Event) -> None:
        self.flow_buf_size.add(event.meta["flowID"], event.meta["pkt_len"])

    # ------------------------------------------------------------------
    # Dequeue event (the "very similar" Dequeue control)
    # ------------------------------------------------------------------
    @handler(EventType.DEQUEUE)
    def on_dequeue(self, ctx: ProgramContext, event: Event) -> None:
        self.flow_buf_size.sub(event.meta["flowID"], event.meta["pkt_len"])

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def detected_flows(self) -> List[int]:
        """Distinct flow ids flagged as culprits, in first-seen order."""
        seen: List[int] = []
        for detection in self.detections:
            if detection.flow_id not in seen:
                seen.append(detection.flow_id)
        return seen

    def first_detection_ps(self, flow_id: int) -> Optional[int]:
        """Time of the first detection of ``flow_id``, or None."""
        for detection in self.detections:
            if detection.flow_id == flow_id:
                return detection.time_ps
        return None


class CmsMicroburstDetector(ForwardingProgram):
    """The paper's §2 footnote: track occupancy in a count-min sketch.

    "If needed, a count-min-sketch data structure can be used to reduce
    state requirements even further."  Enqueue events add the packet
    length under the flow key, dequeue events subtract it (valid
    because per-flow occupancy never goes negative, so the CMS
    never-underestimate guarantee survives — see
    :meth:`~repro.pisa.externs.sketch.CountMinSketch.add_signed`).
    The sketch only needs capacity proportional to the flows
    *concurrently buffered*, not every flow the register version must
    provision for, at the cost of possible overestimates (false
    positives under aliasing).
    """

    name = "microburst-cms"

    def __init__(
        self,
        width: int = 128,
        depth: int = 2,
        flow_thresh_bytes: int = 8_000,
    ) -> None:
        super().__init__()
        if flow_thresh_bytes <= 0:
            raise ValueError(f"threshold must be positive, got {flow_thresh_bytes}")
        self.sketch = CountMinSketch(width, depth, name="occupancy_cms")
        self.flow_thresh_bytes = flow_thresh_bytes
        self.detections: List[Detection] = []
        self.packets_seen = 0

    @staticmethod
    def _key(src: int, dst: int) -> bytes:
        return src.to_bytes(4, "big") + dst.to_bytes(4, "big")

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx: ProgramContext, pkt: Packet, meta: StandardMetadata) -> None:
        self.packets_seen += 1
        ip = pkt.get(Ipv4)
        if ip is None:
            meta.drop()
            return
        flow_id = ip_pair_hash(ip.src, ip.dst, 1 << 20)  # report identity only
        meta.enq_meta["src"] = ip.src
        meta.enq_meta["dst"] = ip.dst
        meta.enq_meta["pkt_len"] = pkt.total_len
        meta.deq_meta["src"] = ip.src
        meta.deq_meta["dst"] = ip.dst
        meta.deq_meta["pkt_len"] = pkt.total_len
        estimate = self.sketch.query(self._key(ip.src, ip.dst))
        if estimate > self.flow_thresh_bytes:
            self.detections.append(Detection(ctx.now_ps, flow_id, estimate))
        self.forward_by_ip(pkt, meta)

    @handler(EventType.ENQUEUE)
    def on_enqueue(self, ctx: ProgramContext, event: Event) -> None:
        self.sketch.add_signed(
            self._key(event.meta["src"], event.meta["dst"]), event.meta["pkt_len"]
        )

    @handler(EventType.DEQUEUE)
    def on_dequeue(self, ctx: ProgramContext, event: Event) -> None:
        self.sketch.add_signed(
            self._key(event.meta["src"], event.meta["dst"]), -event.meta["pkt_len"]
        )

    def detected_flows(self) -> List[int]:
        """Distinct flow ids flagged, in first-seen order."""
        seen: List[int] = []
        for detection in self.detections:
            if detection.flow_id not in seen:
                seen.append(detection.flow_id)
        return seen

    def first_detection_ps(self, flow_id: int) -> Optional[int]:
        """Time of the first detection of ``flow_id``, or None."""
        for detection in self.detections:
            if detection.flow_id == flow_id:
                return detection.time_ps
        return None
