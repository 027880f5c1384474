"""The logical event-driven architecture (paper Figure 2).

Each data-plane event kind triggers processing in its own *logical
pipeline*, and all pipelines share global state (the ``shared_register``
externs).  This is the model the paper says lower-line-rate devices can
implement directly with multi-ported memory: every event thread has a
dedicated read/write port, so handlers run synchronously at the moment
their event fires, with no staleness.

The class extends the baseline PSA datapath (packets still flow ingress
pipeline → traffic manager → egress pipeline) and adds:

* traffic-manager hooks that fire ENQUEUE / DEQUEUE / BUFFER_OVERFLOW /
  BUFFER_UNDERFLOW / PACKET_TRANSMITTED events,
* a timer unit (TIMER events),
* a data-plane packet generator (GENERATED_PACKET events),
* link-status (LINK_STATUS), control-plane (CONTROL_PLANE) and USER
  events,

all dispatched immediately to the program's handlers.
"""

from __future__ import annotations

from typing import Dict

from repro.arch.baseline import BaselinePsaSwitch
from repro.arch.description import LOGICAL_EVENT_DRIVEN, ArchitectureDescription
from repro.arch.events import PIPELINE_PACKET_EVENTS, Event, EventType
from repro.arch.program import P4Program
from repro.packet.packet import Packet
from repro.pisa.pipeline import Pipeline
from repro.sim.kernel import Simulator


def _noop_control(pkt, meta) -> None:
    """Placeholder control for accounting-only event pipelines.

    A module-level function (not a lambda) so loaded switches stay
    picklable for whole-simulator checkpoints.
    """


class LogicalEventSwitch(BaselinePsaSwitch):
    """Figure 2's logical architecture: one pipeline per event kind."""

    def __init__(
        self,
        sim: Simulator,
        description: ArchitectureDescription = LOGICAL_EVENT_DRIVEN,
        name: str = "evsw",
        **kwargs,
    ) -> None:
        super().__init__(sim, description, name=name, **kwargs)
        self.bus.subscribe(self._route_event)
        self.event_pipelines: Dict[EventType, Pipeline] = {}

    # ------------------------------------------------------------------
    # Program lifecycle
    # ------------------------------------------------------------------
    def load_program(self, program: P4Program) -> None:
        super().load_program(program)
        # One logical pipeline per handled non-pipeline event, mirroring
        # Figure 2's separate enqueue/dequeue pipelines.  These exist for
        # accounting (the resource model counts them); dispatch itself is
        # synchronous.
        self.event_pipelines = {
            kind: Pipeline(
                f"{self.name}.{kind.value}",
                _noop_control,
                stage_count=max(2, self.description.pipeline_stages // 2),
                clock_mhz=self.description.clock_mhz,
            )
            for kind in sorted(program.handled_events(), key=lambda k: k.value)
            if kind not in PIPELINE_PACKET_EVENTS
        }

    # ------------------------------------------------------------------
    # Generated packets
    # ------------------------------------------------------------------
    def inject_generated(self, pkt: Packet) -> None:
        """Program-generated packets enter the ingress pipeline directly."""
        pkt.generated = True
        self._to_ingress(pkt)

    # ------------------------------------------------------------------
    # Event routing: synchronous, multi-ported memory (no staleness)
    # ------------------------------------------------------------------
    def _route_event(self, event: Event) -> None:
        """Bus subscriber: account the logical pipeline, dispatch now.

        Dispatch happens at the instant the event was published, so the
        bus's dispatch-latency observers record zero staleness — the
        multi-ported-memory ideal of Figure 2.
        """
        pipeline = self.event_pipelines.get(event.kind)
        if pipeline is not None:
            pipeline.packets_processed += 1
        self.bus.dispatch(event)
