"""Per-event-type counters over one or many event buses.

The counter observer is the cheapest possible view of the event path:
four integers per event kind, aggregated across every bus it watches.
Attach it to a single switch's bus (``switch.bus.add_observer``) or to
every bus an experiment creates (:func:`repro.obs.observing`).

:func:`bus_totals` reads the same totals from the counters every bus
keeps anyway, with no observer attached — how phased search trials and
phased service jobs count their events.
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.bus import BusObserver, EventBus
from repro.arch.events import Event, EventType


class EventCounters(BusObserver):
    """Counts published / suppressed / handled / dropped events per kind."""

    def __init__(self) -> None:
        self.published: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.suppressed: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.handled: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.dropped: Dict[EventType, int] = {kind: 0 for kind in EventType}

    # ------------------------------------------------------------------
    # BusObserver hooks
    # ------------------------------------------------------------------
    def on_publish(self, bus: EventBus, event: Event, admitted: bool) -> None:
        self.published[event.kind] += 1
        if not admitted:
            self.suppressed[event.kind] += 1

    def on_dispatch(
        self, bus: EventBus, event: Event, latency_ps: int, handled: bool
    ) -> None:
        if handled:
            self.handled[event.kind] += 1

    def on_drop(self, bus: EventBus, event: Event) -> None:
        self.dropped[event.kind] += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def nonzero_kinds(self) -> List[EventType]:
        """Event kinds that were published at least once."""
        return [kind for kind in EventType if self.published[kind] > 0]

    def total_published(self) -> int:
        """All publishes seen, admitted or not."""
        return sum(self.published.values())

    def totals(self) -> Dict[str, int]:
        """``{published, handled, dropped}`` summed over every kind."""
        return {
            "published": self.total_published(),
            "handled": sum(self.handled.values()),
            "dropped": sum(self.dropped.values()),
        }

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Nested plain-dict snapshot (kind value → counter name → count)."""
        return {
            kind.value: {
                "published": self.published[kind],
                "suppressed": self.suppressed[kind],
                "handled": self.handled[kind],
                "dropped": self.dropped[kind],
            }
            for kind in EventType
        }

    def summary_rows(self) -> List[str]:
        """One printable row per event kind seen at least once."""
        rows = [
            f"{'event':<26} {'published':>10} {'suppressed':>11} "
            f"{'handled':>8} {'dropped':>8}"
        ]
        for kind in EventType:
            if self.published[kind] == 0 and self.dropped[kind] == 0:
                continue
            rows.append(
                f"{kind.value:<26} {self.published[kind]:>10} "
                f"{self.suppressed[kind]:>11} {self.handled[kind]:>8} "
                f"{self.dropped[kind]:>8}"
            )
        if len(rows) == 1:
            rows.append("(no events observed)")
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventCounters(published={self.total_published()})"


def bus_totals(network) -> Dict[str, int]:
    """:meth:`EventCounters.totals` read from the buses' own counters of
    every switch in ``network`` (each bus once), with no observer
    attached."""
    buses = {id(sw.bus): sw.bus for sw in network.switches.values()}.values()
    return {
        "published": sum(bus.published_total() for bus in buses),
        "handled": sum(sum(bus.handled.values()) for bus in buses),
        "dropped": sum(sum(bus.dropped.values()) for bus in buses),
    }
