"""Time-window externs: shift register and sliding-window aggregates.

Paper §5 ("Time-Windowed Network Measurement"): one student group used
timer events with a simple shift register to accurately measure flow
rates.  :class:`ShiftRegister` is that primitive — a fixed number of
slots advanced by a timer event — and :class:`SlidingWindow` layers
sum / mean / max over it.
"""

from __future__ import annotations

from typing import List

from repro.state.store import StateStore, make_store


class ShiftRegister:
    """A ``slots``-deep shift register of integers.

    ``accumulate`` adds into the head slot; ``shift`` (driven by a timer
    event) pushes a fresh zero slot and drops the tail.  The sum over
    all slots is then a moving-window total of the accumulated signal.
    """

    def __init__(self, slots: int, name: str = "shift_reg") -> None:
        if slots <= 0:
            raise ValueError(f"slot count must be positive, got {slots}")
        self.slots = slots
        self.name = name
        self._values = make_store(slots, 0, name=name)
        self.shift_count = 0

    def accumulate(self, amount: int) -> None:
        """Add ``amount`` into the current (head) slot."""
        self._values[0] += amount

    def shift(self) -> int:
        """Advance the window by one slot; returns the expired tail value."""
        self.shift_count += 1
        values = self._values.snapshot()
        expired = values[-1]
        self._values.load([0] + values[:-1])
        return expired

    def window_sum(self) -> int:
        """Sum over all slots — the moving-window total."""
        return self._values.sum_values()

    def window_max(self) -> int:
        """Maximum slot value in the window."""
        return self._values.max_value()

    def head(self) -> int:
        """The current (still-accumulating) slot value."""
        return self._values[0]

    def snapshot(self) -> List[int]:
        """The slots as a dense list, head first (delegates to the store)."""
        return self._values.snapshot()

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._values]

    @property
    def state_bits(self) -> int:
        """Footprint assuming 32-bit slots."""
        return self.slots * 32

    def __repr__(self) -> str:
        return f"ShiftRegister({self.name!r}, slots={self.slots})"


class SlidingWindow:
    """Per-index sliding windows: an array of shift registers.

    This is the per-flow variant used for flow-rate measurement: index
    by flow id, accumulate packet bytes, shift all windows on each timer
    event, and read rates as window-sum / window-duration.
    """

    def __init__(
        self,
        size: int,
        slots: int,
        name: str = "windows",
    ) -> None:
        if size <= 0:
            raise ValueError(f"window array size must be positive, got {size}")
        self.size = size
        self.slots = slots
        self.name = name
        self._windows = [
            ShiftRegister(slots, f"{name}[{i}]") for i in range(size)
        ]

    def accumulate(self, index: int, amount: int) -> None:
        """Add ``amount`` to window ``index``'s head slot."""
        self._check(index)
        self._windows[index].accumulate(amount)

    def shift_all(self) -> None:
        """Advance every window (one timer event shifts them all)."""
        for window in self._windows:
            window.shift()

    def window_sum(self, index: int) -> int:
        """Moving-window total at ``index``."""
        self._check(index)
        return self._windows[index].window_sum()

    def rate_bps(self, index: int, slot_duration_ps: int) -> float:
        """Window total interpreted as a bit rate, given the slot period."""
        window_ps = self.slots * slot_duration_ps
        if window_ps <= 0:
            raise ValueError("slot duration must be positive")
        return self.window_sum(index) * 8 * 1e12 / window_ps

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(
                f"window array {self.name!r} index {index} out of range "
                f"[0, {self.size})"
            )

    @property
    def state_bits(self) -> int:
        """Total footprint across all windows."""
        return self.size * self.slots * 32

    def stores(self) -> List[StateStore]:
        """The backing stores of every window (manifest/checkpoint)."""
        return [store for window in self._windows for store in window.stores()]

    def __repr__(self) -> str:
        return f"SlidingWindow({self.name!r}, size={self.size}, slots={self.slots})"
