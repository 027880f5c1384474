"""The Event Merger (paper Figure 4).

"The Event Merger is responsible for gathering all new events and
placing them into metadata that flows through the pipeline.  If there
are no ingress packets for the metadata to piggyback onto, the Event
Merger generates an empty packet, attaches the event metadata and
injects it into the P4 pipeline."

The model here mirrors the hardware contract:

* every fired event is *offered* to the merger and waits in a per-kind
  FIFO (the hardware has one metadata slot per event kind, so a carrier
  takes at most ``slots_per_kind`` events of each kind),
* every packet entering the pipeline (ingress, recirculated, or
  generated) calls :meth:`take_for_carrier` and carries away what fits,
* events still pending ``wait_cycles`` clock cycles after being offered
  cause an *empty packet injection*, modeling the merger using an idle
  cycle.

Statistics distinguish piggybacked from injected deliveries — the
quantity the Figure 4 bench reports — and count events lost to a full
merger queue when injection is disabled (the ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.arch.events import Event, EventType
from repro.sim.kernel import Simulator


@dataclass
class MergerStats:
    """Delivery accounting for the Event Merger."""

    offered: int = 0
    piggybacked: int = 0
    injected_events: int = 0
    injected_packets: int = 0
    dropped: int = 0
    #: Sum of (delivery time - fire time) over delivered events.
    total_wait_ps: int = 0
    delivered: int = 0

    @property
    def mean_wait_ps(self) -> float:
        """Mean event delivery latency in picoseconds."""
        return self.total_wait_ps / self.delivered if self.delivered else 0.0


InjectFn = Callable[[List[Event]], None]
DropFn = Callable[[Event], None]

#: Enum declaration order, for sorting the live-kind set at take time.
_KIND_ORDER = {kind: index for index, kind in enumerate(EventType)}


class EventMerger:
    """Gathers events and attaches them to pipeline carriers."""

    def __init__(
        self,
        sim: Simulator,
        clock_ps: int,
        slots_per_kind: int = 1,
        queue_capacity: int = 64,
        wait_cycles: int = 1,
        injection_enabled: bool = True,
    ) -> None:
        if clock_ps <= 0:
            raise ValueError(f"clock period must be positive, got {clock_ps}")
        if slots_per_kind <= 0:
            raise ValueError(f"slots per kind must be positive, got {slots_per_kind}")
        if queue_capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {queue_capacity}")
        if wait_cycles < 0:
            raise ValueError(f"wait cycles must be non-negative, got {wait_cycles}")
        self.sim = sim
        self.clock_ps = clock_ps
        self.slots_per_kind = slots_per_kind
        self.queue_capacity = queue_capacity
        self.wait_cycles = wait_cycles
        # Both factors are fixed here, so the offer path reads the delay.
        self._wait_ps = max(1, wait_cycles * clock_ps)
        self.injection_enabled = injection_enabled
        self.stats = MergerStats()
        self._pending: Dict[EventType, List[Event]] = {kind: [] for kind in EventType}
        # Kinds with a non-empty queue: take_for_carrier walks only
        # these (sorted back into declaration order) instead of all 13
        # kinds — the carrier path runs once per pipeline entry.
        self._live: set = set()
        self._pending_total = 0
        self._inject_fn: Optional[InjectFn] = None
        self._drop_fn: Optional[DropFn] = None
        self._check_scheduled = False

    def set_inject_fn(self, fn: InjectFn) -> None:
        """Register the architecture's empty-packet injection path."""
        self._inject_fn = fn

    def set_drop_fn(self, fn: DropFn) -> None:
        """Register where overflow-dropped events are reported (the bus)."""
        self._drop_fn = fn

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def offer(self, event: Event) -> None:
        """Queue a fired event for delivery."""
        self.stats.offered += 1
        queue = self._pending[event.kind]
        if len(queue) >= self.queue_capacity:
            # The merger's per-kind queue is full; hardware would drop
            # the oldest metadata word.  Count it, tell the bus, move on.
            lost = queue.pop(0)
            self._pending_total -= 1
            self.stats.dropped += 1
            if self._drop_fn is not None:
                self._drop_fn(lost)
        if not queue:
            self._live.add(event.kind)
        queue.append(event)
        self._pending_total += 1
        if self.injection_enabled and not self._check_scheduled:
            self._check_scheduled = True
            self.sim.call_after(self._wait_ps, self._injection_check)

    @property
    def pending_count(self) -> int:
        """Events waiting for a carrier (maintained O(1))."""
        return self._pending_total

    # ------------------------------------------------------------------
    # Carrier interface
    # ------------------------------------------------------------------
    def take_for_carrier(self, piggyback: bool = True) -> List[Event]:
        """Pop up to ``slots_per_kind`` events of each kind for a carrier.

        Called by the architecture as a packet enters the P4 pipeline.
        Events are returned oldest-first within each kind, kinds in
        enum declaration order (a fixed metadata layout, as in
        hardware).
        """
        if self._pending_total == 0:
            # Nothing waiting — the common case for packet-heavy runs;
            # skip the walk over every event kind.
            return []
        taken: List[Event] = []
        live = self._live
        slots = self.slots_per_kind
        # One live kind (the common case) needs no ordering.
        kinds = list(live) if len(live) == 1 else sorted(live, key=_KIND_ORDER.get)
        for kind in kinds:
            queue = self._pending[kind]
            if len(queue) <= slots:
                taken += queue
                queue.clear()
                live.discard(kind)
            else:
                taken += queue[:slots]
                del queue[:slots]
        count = len(taken)
        self._pending_total -= count
        stats = self.stats
        stats.delivered += count
        # Σ (now - time_ps) over the taken records, as now·count - Σ time_ps.
        fired_ps = 0
        for event in taken:
            fired_ps += event.time_ps
        stats.total_wait_ps += self.sim._get_now() * count - fired_ps
        if piggyback:
            stats.piggybacked += count
        else:
            stats.injected_events += count
        return taken

    # ------------------------------------------------------------------
    # Empty-packet injection
    # ------------------------------------------------------------------
    def _injection_check(self) -> None:
        self._check_scheduled = False
        if not self.injection_enabled or self._inject_fn is None:
            return
        if self._pending_total == 0:
            return
        events = self.take_for_carrier(piggyback=False)
        if events:
            self.stats.injected_packets += 1
            self._inject_fn(events)
        if self._pending_total > 0:
            # More events than one carrier's slots: keep injecting on
            # subsequent idle cycles.
            self._check_scheduled = True
            self.sim.call_after(max(1, self.clock_ps), self._injection_check)

    def __repr__(self) -> str:
        return (
            f"EventMerger(pending={self.pending_count}, "
            f"piggybacked={self.stats.piggybacked}, "
            f"injected={self.stats.injected_events})"
        )
