"""Packet queues with byte-accurate occupancy accounting.

Each output port owns one or more :class:`PacketQueue` instances.  The
queue tracks occupancy in both packets and bytes, plus the high-water
mark and cumulative statistics that the monitoring applications and the
benches read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.packet.packet import Packet


@dataclass
class QueueStats:
    """Cumulative statistics for one queue."""

    enqueued_packets: int = 0
    enqueued_bytes: int = 0
    dequeued_packets: int = 0
    dequeued_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    max_depth_bytes: int = 0
    max_depth_packets: int = 0


class PacketQueue:
    """A FIFO packet queue with a byte-capacity limit.

    ``capacity_bytes`` bounds this queue alone; the shared-buffer limit
    is enforced separately by :class:`repro.tm.buffer.SharedBuffer`.
    """

    def __init__(self, capacity_bytes: int, name: str = "queue") -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        # (packet, size) pairs: the TM reads ``total_len`` once at
        # enqueue, so ``pop`` need not read it again.
        self._packets: Deque[Tuple[Packet, int]] = deque()
        self.depth_bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def empty(self) -> bool:
        """True when the queue holds no packets."""
        return not self._packets

    def fits(self, size: int) -> bool:
        """Would a ``size``-byte packet fit within this queue's own capacity?"""
        return self.depth_bytes + size <= self.capacity_bytes

    def push(self, pkt: Packet, size: int) -> None:
        """Enqueue ``pkt`` (``size`` = its ``total_len``) at the tail;
        caller must have checked :meth:`fits`."""
        depth = self.depth_bytes + size
        if depth > self.capacity_bytes:
            raise OverflowError(
                f"queue {self.name!r} overflow: {self.depth_bytes}B + "
                f"{size}B > {self.capacity_bytes}B"
            )
        packets = self._packets
        packets.append((pkt, size))
        self.depth_bytes = depth
        stats = self.stats
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        if depth > stats.max_depth_bytes:
            stats.max_depth_bytes = depth
        if len(packets) > stats.max_depth_packets:
            stats.max_depth_packets = len(packets)

    def pop(self) -> Tuple[Packet, int]:
        """Dequeue from the head: the ``(packet, size)`` pair stored at
        :meth:`push`.  IndexError when empty."""
        if not self._packets:
            raise IndexError(f"pop from empty queue {self.name!r}")
        entry = self._packets.popleft()
        size = entry[1]
        self.depth_bytes -= size
        self.stats.dequeued_packets += 1
        self.stats.dequeued_bytes += size
        return entry

    def peek(self) -> Optional[Packet]:
        """The head packet without removing it, or None when empty."""
        return self._packets[0][0] if self._packets else None

    def account_drop(self, size: int) -> None:
        """Record a ``size``-byte drop that was charged against this queue."""
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += size

    def __repr__(self) -> str:
        return (
            f"PacketQueue({self.name!r}, {len(self)} pkts / "
            f"{self.depth_bytes}B of {self.capacity_bytes}B)"
        )
