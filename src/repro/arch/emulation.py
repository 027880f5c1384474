"""Emulating events on a modern fixed-function PISA device (paper §6).

"Tofino contains a configurable packet generator which the control
plane can configure to generate periodic packets and hence emulate
timer events.  Tofino also supports packet recirculation, which can
emulate dequeue events that trigger the ingress pipeline.  However,
supporting all of the events listed in Table 1 requires changes to
existing hardware."

:class:`EmulatedEventSwitch` implements exactly that story on the
baseline PSA datapath:

* **Timer emulation** — an armed timer becomes a packet-generator
  stream; each firing injects a marker packet that occupies an ingress
  pipeline slot and, a pipeline traversal later, runs the TIMER handler.
* **Dequeue emulation** — each TM dequeue spawns a 64-byte marker that
  must cross the *recirculation port*, a fixed-rate internal port, and
  then traverse the ingress pipeline before the DEQUEUE handler runs.
  Recirculation bandwidth is finite: markers queue behind each other,
  and when the queue overflows the event is lost.

Both costs are counted, so the emulation-ablation bench can report the
bandwidth stolen from forwarding and the added handler latency, and
where the emulation starts dropping events that the native SUME Event
Switch delivers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.arch.baseline import BaselinePsaSwitch
from repro.arch.description import TOFINO_LIKE, ArchitectureDescription
from repro.arch.events import Event, EventType
from repro.sim.kernel import Simulator
from repro.sim.units import bytes_to_time_ps

#: Wire size of an emulation marker packet (minimum frame + overhead).
MARKER_WIRE_BYTES = 84


class EmulatedEventSwitch(BaselinePsaSwitch):
    """A Tofino-like device emulating timer and dequeue events."""

    def __init__(
        self,
        sim: Simulator,
        description: ArchitectureDescription = TOFINO_LIKE,
        name: str = "tofino",
        recirc_rate_gbps: float = 100.0,
        recirc_queue_capacity: int = 128,
        **kwargs,
    ) -> None:
        super().__init__(sim, description, name=name, **kwargs)
        self.bus.subscribe(self._route_event)
        if recirc_rate_gbps <= 0:
            raise ValueError(f"recirc rate must be positive, got {recirc_rate_gbps}")
        self.recirc_rate_gbps = recirc_rate_gbps
        self.recirc_queue_capacity = recirc_queue_capacity
        self._recirc_queue: Deque[Event] = deque()
        self._recirc_busy = False
        # Emulation accounting (read by the ablation bench).
        self.emu_timer_markers = 0
        self.emu_dequeue_markers = 0
        self.emu_events_lost = 0
        self.emu_pipeline_slots_used = 0
        self.emu_recirc_bytes = 0

    # ------------------------------------------------------------------
    # Event routing: only emulated kinds ever reach here
    # ------------------------------------------------------------------
    def _route_event(self, event: Event) -> None:
        if event.kind == EventType.TIMER:
            self._emulate_timer(event)
        elif event.kind == EventType.DEQUEUE:
            self._emulate_dequeue(event)
        else:  # pragma: no cover - fire_event suppresses everything else
            raise AssertionError(
                f"{self.description.name} cannot deliver {event.kind}"
            )

    # ------------------------------------------------------------------
    # Timer emulation: packet-generator marker through the pipeline
    # ------------------------------------------------------------------
    def _emulate_timer(self, event: Event) -> None:
        self.emu_timer_markers += 1
        self.emu_pipeline_slots_used += 1
        self.sim.call_after(
            self.ingress_pipeline.latency_ps, self.bus.dispatch, event
        )

    # ------------------------------------------------------------------
    # Dequeue emulation: recirculation port, then the pipeline
    # ------------------------------------------------------------------
    def _emulate_dequeue(self, event: Event) -> None:
        if len(self._recirc_queue) >= self.recirc_queue_capacity:
            self.emu_events_lost += 1
            self.bus.drop(event)
            return
        self._recirc_queue.append(event)
        self._serve_recirc()

    def _serve_recirc(self) -> None:
        if self._recirc_busy or not self._recirc_queue:
            return
        self._recirc_busy = True
        event = self._recirc_queue.popleft()
        tx_ps = bytes_to_time_ps(MARKER_WIRE_BYTES, self.recirc_rate_gbps)
        self.emu_recirc_bytes += MARKER_WIRE_BYTES
        self.emu_dequeue_markers += 1
        self.emu_pipeline_slots_used += 1
        self.sim.call_after(tx_ps, self._recirc_done, event)

    def _recirc_done(self, event: Event) -> None:
        self._recirc_busy = False
        # The marker now traverses the ingress pipeline like any packet;
        # the bus dispatch at the far end records the full emulation
        # latency (recirc wait + pipeline) as the event's staleness.
        self.sim.call_after(
            self.ingress_pipeline.latency_ps, self.bus.dispatch, event
        )
        self._serve_recirc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def emulation_overhead_report(self, duration_ps: int) -> dict:
        """Bandwidth and slot overheads of emulation over ``duration_ps``."""
        if duration_ps <= 0:
            raise ValueError(f"duration must be positive, got {duration_ps}")
        recirc_bps = self.emu_recirc_bytes * 8 * 1e12 / duration_ps
        slot_rate = self.emu_pipeline_slots_used * 1e12 / duration_ps
        pipeline_slot_capacity = self.description.clock_mhz * 1e6
        return {
            "timer_markers": self.emu_timer_markers,
            "dequeue_markers": self.emu_dequeue_markers,
            "events_lost": self.emu_events_lost,
            "recirc_gbps": recirc_bps / 1e9,
            "recirc_utilization": recirc_bps / (self.recirc_rate_gbps * 1e9),
            "pipeline_slot_fraction": slot_rate / pipeline_slot_capacity,
        }
