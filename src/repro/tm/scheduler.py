"""Egress schedulers.

A scheduler picks which of a port's queues to serve next.  The paper
(§3, traffic management) notes that packet scheduling is not currently
P4-programmable; combining the event-driven model with a PIFO yields a
programmable scheduler — :class:`PifoScheduler` is that combination,
while FIFO and strict priority are the fixed-function baselines.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.packet.packet import Packet
from repro.pisa.externs.pifo import PifoQueue
from repro.tm.queues import PacketQueue


class Scheduler:
    """Base scheduler interface over a port's queues."""

    def __init__(self, queues: Sequence[PacketQueue]) -> None:
        if not queues:
            raise ValueError("scheduler needs at least one queue")
        self.queues = list(queues)

    def select(self) -> Optional[int]:
        """Index of the queue to serve next, or None if all are empty."""
        raise NotImplementedError

    def has_packets(self) -> bool:
        """True when any queue is non-empty."""
        return any(not q.empty for q in self.queues)

    def dequeue(self) -> Optional[Tuple[Packet, int]]:
        """Pop the next ``(packet, size)`` according to the policy, or None."""
        index = self.select()
        if index is None:
            return None
        return self.queues[index].pop()


class FifoScheduler(Scheduler):
    """FIFO: serves the first non-empty queue, so with several queues it
    orders them exactly as :class:`StrictPriorityScheduler` does."""

    def select(self) -> Optional[int]:
        for index, queue in enumerate(self.queues):
            if not queue.empty:
                return index
        return None


class StrictPriorityScheduler(Scheduler):
    """Lowest queue index is highest priority and always served first."""

    def select(self) -> Optional[int]:
        for index, queue in enumerate(self.queues):
            if not queue.empty:
                return index
        return None


RankFn = Callable[[Packet], int]


class PifoScheduler(Scheduler):
    """Programmable scheduler: a PIFO ordered by a user rank function.

    Packets enter through :meth:`on_enqueue` (called by the traffic
    manager), which computes the rank — e.g. flow virtual finish time
    for WFQ, or slack for EDF — and pushes into the PIFO.  ``dequeue``
    pops in rank order.  The backing :class:`PacketQueue` list is kept
    for occupancy accounting only.
    """

    def __init__(
        self,
        queues: Sequence[PacketQueue],
        rank_fn: RankFn,
        capacity: int = 4096,
    ) -> None:
        super().__init__(queues)
        self.rank_fn = rank_fn
        self.pifo: PifoQueue[Packet] = PifoQueue(capacity, name="sched_pifo")
        self.depth_bytes = 0

    def on_enqueue(self, pkt: Packet) -> Optional[Packet]:
        """Rank and insert ``pkt``; returns a displaced/rejected packet.

        The traffic manager must treat a returned packet as dropped and
        release its buffer bytes.
        """
        displaced = self.pifo.push(self.rank_fn(pkt), pkt)
        if displaced is not pkt:
            self.depth_bytes += pkt.total_len
        if displaced is not None and displaced is not pkt:
            self.depth_bytes -= displaced.total_len
        return displaced

    def has_packets(self) -> bool:
        return len(self.pifo) > 0

    def select(self) -> Optional[int]:
        return 0 if self.has_packets() else None

    def dequeue(self) -> Optional[Tuple[Packet, int]]:
        if not self.has_packets():
            return None
        # The PIFO stores bare packets, so the size is read at pop.
        pkt = self.pifo.pop()
        size = pkt.total_len
        self.depth_bytes -= size
        return pkt, size
