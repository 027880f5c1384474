"""Sketch externs: count-min sketch and Bloom filter.

The count-min sketch (Cormode & Muthukrishnan 2005) is the paper's
running example of a data structure that needs *periodic reset* — on a
baseline PISA architecture the control plane must clear it, with
significant overhead if resets are frequent; with timer events the data
plane resets it autonomously (paper §1, §3).
"""

from __future__ import annotations

from typing import List

from repro.packet.hashing import crc32, fold_hash
from repro.state.store import StateStore, make_store


class CountMinSketch:
    """A count-min sketch with ``depth`` rows of ``width`` counters.

    Update adds a count under a key; query returns the minimum across
    rows, an overestimate with error ≤ 2N/width at probability
    ≥ 1 − (1/2)^depth for total count N.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        name: str = "cms",
    ) -> None:
        if width <= 0:
            raise ValueError(f"sketch width must be positive, got {width}")
        if depth <= 0:
            raise ValueError(f"sketch depth must be positive, got {depth}")
        self.width = width
        self.depth = depth
        self.name = name
        # One flat store of depth*width counters; row r occupies
        # [r*width, (r+1)*width).  A flat layout means one manifest entry
        # and one contiguous snapshot per sketch.
        self._cells = make_store(width * depth, 0, name=name)
        self.update_count = 0

    def _indices(self, key: bytes) -> List[int]:
        return [
            fold_hash(crc32(key, seed=(0xFFFFFFFF ^ (row * 0x9E3779B9)) & 0xFFFFFFFF), self.width)
            for row in range(self.depth)
        ]

    def update(self, key: bytes, count: int = 1) -> None:
        """Add ``count`` under ``key``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.update_count += 1
        width = self.width
        for row, idx in enumerate(self._indices(key)):
            self._cells[row * width + idx] += count

    def add_signed(self, key: bytes, delta: int) -> None:
        """Add a signed delta under ``key`` (occupancy-style usage).

        Valid when every key's *net* count stays non-negative (e.g.
        buffer occupancy updated by enqueue/dequeue events, the paper's
        §2 footnote): then each cell is a sum of non-negative nets and
        :meth:`query` still never underestimates.  A cell going
        negative indicates misuse and raises.
        """
        self.update_count += 1
        width = self.width
        for row, idx in enumerate(self._indices(key)):
            flat = row * width + idx
            new_value = self._cells[flat] + delta
            if new_value < 0:
                raise ValueError(
                    f"sketch {self.name!r} cell went negative; add_signed "
                    f"requires non-negative per-key nets"
                )
            self._cells[flat] = new_value

    def query(self, key: bytes) -> int:
        """Estimated count of ``key`` (never underestimates)."""
        width = self.width
        return min(
            self._cells[row * width + idx]
            for row, idx in enumerate(self._indices(key))
        )

    def clear(self) -> None:
        """Reset all counters (the paper's periodic reset operation)."""
        self._cells.fill(0)

    def row(self, row: int) -> List[int]:
        """Dense copy of one sketch row (for tests and reports)."""
        if not 0 <= row < self.depth:
            raise IndexError(f"sketch {self.name!r} row {row} out of range")
        return self._cells.snapshot()[row * self.width : (row + 1) * self.width]

    def total(self) -> int:
        """Total count inserted since the last clear (row 0 sum)."""
        return sum(self.row(0))

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._cells]

    @property
    def state_bits(self) -> int:
        """Footprint assuming 32-bit counters."""
        return self.width * self.depth * 32

    @property
    def counter_count(self) -> int:
        """Number of counters (control-plane reset cost is one write each)."""
        return self.width * self.depth

    def __repr__(self) -> str:
        return f"CountMinSketch({self.name!r}, {self.depth}x{self.width})"


class BloomFilter:
    """A Bloom filter over byte keys with ``hashes`` hash functions."""

    def __init__(
        self,
        bits: int,
        hashes: int = 3,
        name: str = "bloom",
    ) -> None:
        if bits <= 0:
            raise ValueError(f"filter size must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hash count must be positive, got {hashes}")
        self.bits = bits
        self.hashes = hashes
        self.name = name
        self._bitset = make_store(bits, 0, name=name)
        self.insert_count = 0

    def _indices(self, key: bytes) -> List[int]:
        return [
            fold_hash(
                crc32(key, seed=(0xFFFFFFFF ^ (h * 0x85EBCA6B)) & 0xFFFFFFFF), self.bits
            )
            for h in range(self.hashes)
        ]

    def insert(self, key: bytes) -> None:
        """Add ``key`` to the set."""
        self.insert_count += 1
        for idx in self._indices(key):
            self._bitset[idx] = 1

    def contains(self, key: bytes) -> bool:
        """Membership test; false positives possible, negatives exact."""
        return all(self._bitset[idx] for idx in self._indices(key))

    def clear(self) -> None:
        """Reset the filter."""
        self._bitset.fill(0)

    def fill_ratio(self) -> float:
        """Fraction of bits set (drives the false-positive rate)."""
        return self._bitset.nonzero_count() / self.bits

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._bitset]

    def __repr__(self) -> str:
        return f"BloomFilter({self.name!r}, bits={self.bits}, hashes={self.hashes})"
