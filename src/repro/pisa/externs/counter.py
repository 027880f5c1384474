"""Counter extern.

PISA counters count packets and/or bytes per index.  Unlike registers
they are write-only from the data plane (the control plane reads them),
which is why periodic data-plane maintenance of counters is impossible
on baseline architectures — one of the paper's motivating gaps.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Tuple

from repro.state.store import StateStore, make_store


class CounterKind(Enum):
    """What a counter array counts."""

    PACKETS = "packets"
    BYTES = "bytes"
    PACKETS_AND_BYTES = "packets_and_bytes"


class Counter:
    """An indexed counter array.

    ``count(index, nbytes)`` is the data-plane operation;
    :meth:`read` / :meth:`read_all` model the control-plane interface.
    """

    def __init__(
        self,
        size: int,
        kind: CounterKind = CounterKind.PACKETS_AND_BYTES,
        name: str = "counter",
    ) -> None:
        if size <= 0:
            raise ValueError(f"counter size must be positive, got {size}")
        self.size = size
        self.kind = kind
        self.name = name
        self._packets = make_store(size, 0, name=f"{name}.packets")
        self._bytes = make_store(size, 0, name=f"{name}.bytes")

    def count(self, index: int, nbytes: int = 0) -> None:
        """Data-plane increment of counter ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"counter {self.name!r} index {index} out of range [0, {self.size})"
            )
        if self.kind in (CounterKind.PACKETS, CounterKind.PACKETS_AND_BYTES):
            self._packets[index] += 1
        if self.kind in (CounterKind.BYTES, CounterKind.PACKETS_AND_BYTES):
            self._bytes[index] += nbytes

    def read(self, index: int) -> Tuple[int, int]:
        """Control-plane read: (packets, bytes) at ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"counter {self.name!r} index {index} out of range [0, {self.size})"
            )
        return self._packets[index], self._bytes[index]

    def read_all(self) -> List[Tuple[int, int]]:
        """Control-plane bulk read of all indices."""
        return list(zip(self._packets.snapshot(), self._bytes.snapshot()))

    def clear(self) -> None:
        """Control-plane reset of all counters."""
        self._packets.fill(0)
        self._bytes.fill(0)

    def total_packets(self) -> int:
        """Sum of the packet counts across all indices."""
        return self._packets.sum_values()

    def total_bytes(self) -> int:
        """Sum of the byte counts across all indices."""
        return self._bytes.sum_values()

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._packets, self._bytes]

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, size={self.size}, kind={self.kind.value})"
