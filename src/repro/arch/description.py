"""Architecture descriptions.

"A particular target device exposes the precise set of events that it
supports via the P4 architecture description file" (paper §2).  An
:class:`ArchitectureDescription` is that file's semantic content: the
set of natively supported events, the set of events available only
through emulation (paper §6), and hardware parameters the resource
model reads.  Loading a program onto an architecture validates the
program's handlers against this description.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Iterable, List

from repro.arch.events import EventType


class UnsupportedEventError(TypeError):
    """A program handles an event its target architecture cannot fire."""


@dataclass(frozen=True)
class ArchitectureDescription:
    """The event capabilities and parameters of one target architecture."""

    name: str
    native_events: FrozenSet[EventType]
    emulated_events: FrozenSet[EventType] = frozenset()
    pipeline_stages: int = 8
    clock_mhz: float = 200.0
    port_count: int = 4
    port_rate_gbps: float = 10.0
    supports_shared_state: bool = False

    @property
    def all_events(self) -> FrozenSet[EventType]:
        """Natively supported plus emulated events."""
        return self.native_events | self.emulated_events

    def supports(self, kind: EventType) -> bool:
        """True when programs may handle ``kind`` on this target."""
        return kind in self.native_events or kind in self.emulated_events

    def validate_events(self, handled: Iterable[EventType]) -> None:
        """Raise :class:`UnsupportedEventError` for unsupported handlers."""
        unsupported = sorted(
            (kind for kind in handled if not self.supports(kind)),
            key=lambda k: k.value,
        )
        if unsupported:
            names = ", ".join(k.value for k in unsupported)
            raise UnsupportedEventError(
                f"architecture {self.name!r} does not support events: {names}"
            )

    def __reduce__(self):
        """Pickle the event sets as sorted tuples.  A frozenset of
        :class:`EventType` members pickles in hash order, which
        ``PYTHONHASHSEED`` changes, and a checkpoint's bytes with it."""
        params = [getattr(self, field.name) for field in fields(self)[3:]]
        native, emulated = (
            tuple(sorted(events, key=lambda k: k.value))
            for events in (self.native_events, self.emulated_events)
        )
        return (_description, (self.name, native, emulated, *params))

    def support_row(self) -> Dict[str, str]:
        """One row of the Table 1 support matrix (for the bench report)."""
        row: Dict[str, str] = {"architecture": self.name}
        for kind in EventType:
            if kind in self.native_events:
                row[kind.value] = "native"
            elif kind in self.emulated_events:
                row[kind.value] = "emulated"
            else:
                row[kind.value] = "—"
        return row


def _description(name, native, emulated, *params) -> ArchitectureDescription:
    """Unpickle an :class:`ArchitectureDescription` (its ``__reduce__``)."""
    return ArchitectureDescription(name, frozenset(native), frozenset(emulated), *params)


#: Figure 1's baseline PSA: ingress + egress packet events only.
BASELINE_PSA = ArchitectureDescription(
    name="baseline-psa",
    native_events=frozenset(
        {EventType.INGRESS_PACKET, EventType.EGRESS_PACKET,
         EventType.RECIRCULATED_PACKET}
    ),
)

#: Figure 2's logical event-driven architecture (the §2 running example
#: supports ingress packet, enqueue and dequeue; we expose the full
#: logical set since each event simply gets its own logical pipeline).
LOGICAL_EVENT_DRIVEN = ArchitectureDescription(
    name="logical-event-driven",
    native_events=frozenset(EventType),
    supports_shared_state=True,
)

#: Figure 4's SUME Event Switch: "regular P4 packet events, plus
#: enqueue, dequeue, and drop events, timer events, link status change
#: events, and a configurable packet generator" (paper §5).  The
#: P4→NetFPGA pipeline is a single physical pipeline before the output
#: queues, so there is no egress packet event.
SUME_EVENT_SWITCH = ArchitectureDescription(
    name="sume-event-switch",
    native_events=frozenset(
        {
            EventType.INGRESS_PACKET,
            EventType.RECIRCULATED_PACKET,
            EventType.GENERATED_PACKET,
            EventType.PACKET_TRANSMITTED,
            EventType.ENQUEUE,
            EventType.DEQUEUE,
            EventType.BUFFER_OVERFLOW,
            EventType.TIMER,
            EventType.LINK_STATUS,
        }
    ),
    pipeline_stages=8,
    clock_mhz=200.0,
    port_count=4,
    port_rate_gbps=10.0,
    supports_shared_state=True,
)

#: Our extension of the SUME Event Switch with the full Table 1 set
#: (adds egress events via an egress pipeline tap, buffer underflow,
#: control-plane triggered and user events).  Used by applications that
#: exercise the complete event catalog on the single-pipeline design.
FULL_EVENT_SWITCH = ArchitectureDescription(
    name="full-event-switch",
    native_events=frozenset(EventType) - frozenset({EventType.EGRESS_PACKET}),
    pipeline_stages=8,
    clock_mhz=200.0,
    port_count=4,
    port_rate_gbps=10.0,
    supports_shared_state=True,
)

#: Section 6's Tofino-like modern PISA device: packet events natively;
#: timer events emulated by the control-plane-configured packet
#: generator, dequeue events emulated by recirculation.
TOFINO_LIKE = ArchitectureDescription(
    name="tofino-like",
    native_events=frozenset(
        {
            EventType.INGRESS_PACKET,
            EventType.EGRESS_PACKET,
            EventType.RECIRCULATED_PACKET,
            EventType.GENERATED_PACKET,
        }
    ),
    emulated_events=frozenset({EventType.TIMER, EventType.DEQUEUE}),
    pipeline_stages=12,
    clock_mhz=1000.0,
    port_count=8,
    port_rate_gbps=100.0,
    # Emulation serializes every handler through the single ingress
    # thread (recirculated/generated packets), so "shared" state is
    # safe: there is only ever one writer thread in reality.
    supports_shared_state=True,
)

#: All the stock descriptions, for the Table 1 bench.
STOCK_DESCRIPTIONS: List[ArchitectureDescription] = [
    BASELINE_PSA,
    LOGICAL_EVENT_DRIVEN,
    SUME_EVENT_SWITCH,
    TOFINO_LIKE,
]
