"""Data-plane events (paper Table 1).

A *data-plane event* is an architectural state change that triggers
processing in the programming model.  Table 1 of the paper lists the
thirteen events an event-driven architecture should support; this module
defines them as :class:`EventType` plus the :class:`Event` record the
architectures deliver to program handlers.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Optional

from repro.packet.packet import Packet


class EventType(Enum):
    """The data-plane events of paper Table 1."""

    INGRESS_PACKET = "ingress_packet"
    EGRESS_PACKET = "egress_packet"
    RECIRCULATED_PACKET = "recirculated_packet"
    GENERATED_PACKET = "generated_packet"
    PACKET_TRANSMITTED = "packet_transmitted"
    ENQUEUE = "buffer_enqueue"
    DEQUEUE = "buffer_dequeue"
    BUFFER_OVERFLOW = "buffer_overflow"
    BUFFER_UNDERFLOW = "buffer_underflow"
    TIMER = "timer_expiration"
    CONTROL_PLANE = "control_plane_triggered"
    LINK_STATUS = "link_status_change"
    USER = "user_event"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # Members are singletons and Enum equality is identity, so the
    # identity-based C-level hash is consistent — and much cheaper than
    # Enum's Python-level name hash on the counter dicts every dispatch
    # touches (hundreds of thousands of lookups per benchmark round).
    __hash__ = object.__hash__


#: Events carried by a packet traversing the device.  Baseline PISA
#: architectures expose (a subset of) these and nothing else.
PACKET_EVENTS: FrozenSet[EventType] = frozenset(
    {
        EventType.INGRESS_PACKET,
        EventType.EGRESS_PACKET,
        EventType.RECIRCULATED_PACKET,
        EventType.GENERATED_PACKET,
        EventType.PACKET_TRANSMITTED,
    }
)

#: Events that fire independently of (or orthogonally to) any single
#: packet's traversal — the ones baseline architectures cannot express.
NON_PACKET_EVENTS: FrozenSet[EventType] = frozenset(EventType) - PACKET_EVENTS

#: Packet events whose handler runs *as the packet traverses a
#: pipeline*, with mutable standard metadata.  PACKET_TRANSMITTED is a
#: packet event but fires after the packet has left, so its handler
#: receives an :class:`Event` like the non-packet kinds.
PIPELINE_PACKET_EVENTS: FrozenSet[EventType] = frozenset(
    {
        EventType.INGRESS_PACKET,
        EventType.EGRESS_PACKET,
        EventType.RECIRCULATED_PACKET,
        EventType.GENERATED_PACKET,
    }
)


class Event:
    """One fired data-plane event, as delivered to a program handler.

    ``pkt`` is present for packet-derived events (enqueue/dequeue carry
    a reference to the packet whose transition fired them); timer, link
    status, control-plane and user events carry None.  ``meta`` holds
    the event's metadata: for enqueue/dequeue this is the user metadata
    the ingress control initialized (the paper's ``enq_meta`` /
    ``deq_meta``), merged with the architecture-provided fields such as
    queue depth; for link events it holds ``port`` and ``up``; for timer
    events ``timer_id``.  A plain fixed-layout record, like a target's
    standard metadata.
    """

    __slots__ = ("kind", "time_ps", "pkt", "meta")

    def __init__(
        self, kind: EventType, time_ps: int, pkt: Optional[Packet] = None, meta=None
    ) -> None:
        self.kind = kind
        self.time_ps = time_ps
        self.pkt = pkt
        self.meta: Dict[str, int] = {} if meta is None else meta

    def require_pkt(self) -> Packet:
        """The event's packet; raises if this event kind carries none."""
        if self.pkt is None:
            raise ValueError(f"{self.kind} event at {self.time_ps}ps carries no packet")
        return self.pkt

    def to_record(self) -> Dict[str, object]:
        """A JSON-serializable view (the obs trace sink's record body)."""
        return {
            "kind": self.kind.value,
            "t_ps": self.time_ps,
            "pkt": self.pkt.pkt_id if self.pkt is not None else None,
            "meta": dict(self.meta),
        }

    def __repr__(self) -> str:
        pkt = f", pkt=#{self.pkt.pkt_id}" if self.pkt is not None else ""
        return f"Event({self.kind.value}, t={self.time_ps}ps{pkt}, meta={self.meta})"
