"""Shared packet buffer accounting.

Switch ASICs share one packet buffer across all ports; a packet is
admitted only if both its queue's limit and the shared-buffer limit
allow it.  :class:`SharedBuffer` tracks the global occupancy and the
high-water mark — the "total buffer occupancy" congestion signal of the
paper's AQM application.
"""

from __future__ import annotations


class SharedBuffer:
    """Global byte budget shared by every queue of a switch."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0
        self.max_occupancy_bytes = 0
        self.admitted_packets = 0
        self.rejected_packets = 0

    def fits(self, size: int) -> bool:
        """Would ``size`` more bytes fit in the remaining shared budget?"""
        return self.occupancy_bytes + size <= self.capacity_bytes

    def admit(self, size: int) -> None:
        """Charge a ``size``-byte packet against the shared budget."""
        occupancy = self.occupancy_bytes + size
        if occupancy > self.capacity_bytes:
            raise OverflowError(
                f"shared buffer overflow: {self.occupancy_bytes}B + "
                f"{size}B > {self.capacity_bytes}B"
            )
        self.occupancy_bytes = occupancy
        self.admitted_packets += 1
        if occupancy > self.max_occupancy_bytes:
            self.max_occupancy_bytes = occupancy

    def release(self, size: int) -> None:
        """Return a ``size``-byte packet's bytes to the shared budget."""
        if self.occupancy_bytes < size:
            raise ValueError(
                f"releasing {size}B but only {self.occupancy_bytes}B held"
            )
        self.occupancy_bytes -= size

    def reject(self) -> None:
        """Record an admission failure (buffer overflow drop)."""
        self.rejected_packets += 1

    @property
    def empty(self) -> bool:
        """True when no packet bytes are buffered anywhere."""
        return self.occupancy_bytes == 0

    def __repr__(self) -> str:
        return (
            f"SharedBuffer({self.occupancy_bytes}/{self.capacity_bytes}B, "
            f"peak={self.max_occupancy_bytes}B)"
        )
