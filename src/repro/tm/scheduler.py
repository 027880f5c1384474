"""Egress schedulers.

A scheduler picks which of a port's queues to serve next.  The paper
(§3, traffic management) notes that packet scheduling is not currently
P4-programmable; combining the event-driven model with a PIFO yields a
programmable scheduler — :class:`PifoScheduler` is that combination,
while FIFO, strict-priority, and deficit-round-robin are the
fixed-function baselines.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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


class DeficitRoundRobinScheduler(Scheduler):
    """Deficit round robin with per-queue quanta (byte-fair service)."""

    def __init__(self, queues: Sequence[PacketQueue], quantum_bytes: int = 1500) -> None:
        super().__init__(queues)
        if quantum_bytes <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_bytes}")
        self.quantum_bytes = quantum_bytes
        self._deficit: List[int] = [0] * len(self.queues)
        # Whether the current visit to each queue has received its
        # quantum yet (classic DRR grants the quantum once per visit).
        self._granted: List[bool] = [False] * len(self.queues)
        self._next = 0

    def _advance(self) -> None:
        self._next = (self._next + 1) % len(self.queues)
        self._granted[self._next] = False

    def select(self) -> Optional[int]:
        if not self.has_packets():
            return None
        # A queue's deficit persists across rounds while it stays
        # backlogged, so heads larger than one quantum are eventually
        # served; the loop bound covers enough rounds for that.
        max_head = max(
            (q.peek().total_len for q in self.queues if not q.empty), default=0
        )
        rounds = 2 + max_head // self.quantum_bytes
        for _ in range(rounds * len(self.queues) + 4):
            index = self._next
            queue = self.queues[index]
            if queue.empty:
                self._deficit[index] = 0
                self._advance()
                continue
            if not self._granted[index]:
                self._deficit[index] += self.quantum_bytes
                self._granted[index] = True
            head = queue.peek()
            assert head is not None
            if self._deficit[index] >= head.total_len:
                self._deficit[index] -= head.total_len
                return index
            # Visit exhausted; keep the remaining deficit for next round.
            self._advance()
        return None  # pragma: no cover - unreachable with sane quanta


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
