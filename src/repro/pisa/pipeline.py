"""A behavioral match-action pipeline.

A :class:`Pipeline` wraps a control function (the P4 ``control`` block)
with a fixed processing latency — ``stage_count`` clock cycles — and
throughput accounting.  Architectures instantiate one pipeline per
control block they expose (ingress, egress, and in the event-driven
logical model one per event kind).
"""

from __future__ import annotations

from typing import Callable

from repro.packet.packet import Packet
from repro.pisa.metadata import StandardMetadata
from repro.sim.units import clock_period_ps

ControlFn = Callable[[Packet, StandardMetadata], None]


class Pipeline:
    """A control block with latency and throughput bookkeeping.

    ``control`` is invoked once per packet (behaviorally instantaneous);
    :attr:`latency_ps` reports how long a packet would spend traversing
    the physical stages, which architectures add to packet timestamps.
    One packet can enter per clock cycle — the pipeline is feed-forward
    and fully pipelined, so throughput is one packet per cycle
    regardless of depth.
    """

    def __init__(
        self,
        name: str,
        control: ControlFn,
        stage_count: int = 8,
        clock_mhz: float = 200.0,
    ) -> None:
        if stage_count <= 0:
            raise ValueError(f"stage count must be positive, got {stage_count}")
        self.name = name
        self.control = control
        self.stage_count = stage_count
        self.clock_mhz = clock_mhz
        #: Traversal latency: one cycle per stage.  Stage count and clock
        #: are fixed here and architectures read it on every pipeline
        #: entry, so it is computed once.
        self.latency_ps = stage_count * clock_period_ps(clock_mhz)
        self.packets_processed = 0
        # Traversals answered from the flow-decision cache: the packet
        # still crossed the pipeline (latency and packets_processed are
        # unchanged — the hardware walk always happens), but the
        # behavioral match-action walk was replayed from the memo.
        self.walks_elided = 0

    @property
    def cycle_ps(self) -> int:
        """Clock period in picoseconds."""
        return clock_period_ps(self.clock_mhz)

    def process(self, pkt: Packet, meta: StandardMetadata) -> None:
        """Run the control block on one packet."""
        self.packets_processed += 1
        self.control(pkt, meta)

    def __repr__(self) -> str:
        return (
            f"Pipeline({self.name!r}, stages={self.stage_count}, "
            f"clock={self.clock_mhz}MHz, processed={self.packets_processed})"
        )
