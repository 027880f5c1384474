"""Register externs.

:class:`Register` is the classic single-thread PISA register array: a
fixed number of fixed-width cells with read / write / read-modify-write
operations and wrapping arithmetic (hardware registers wrap, they do not
raise OverflowError).

:class:`SharedRegister` is the paper's new extern (§2): a register array
that multiple event-processing threads may access.  It additionally
records which threads touched it — the architecture uses this to verify
that baseline PISA programs never share state across threads, and the
resource model uses the access pattern to size the aggregation machinery
of §4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.state.store import StateStore, make_store


class Register:
    """A register array extern: ``size`` cells of ``width_bits`` each.

    All arithmetic wraps modulo ``2**width_bits``, matching hardware
    semantics.  Indices are range-checked; out-of-bounds access is a
    programming error and raises IndexError rather than silently
    aliasing.

    Cells live in a :class:`repro.state.store.StateStore`, which keeps
    hot-path indexing at raw-list cost.
    """

    def __init__(
        self,
        size: int,
        width_bits: int = 32,
        name: str = "reg",
    ) -> None:
        if size <= 0:
            raise ValueError(f"register size must be positive, got {size}")
        if width_bits <= 0:
            raise ValueError(f"register width must be positive, got {width_bits}")
        self.size = size
        self.width_bits = width_bits
        self.name = name
        self._mask = (1 << width_bits) - 1
        self._cells = make_store(size, 0, name=name)
        self.read_count = 0
        self.write_count = 0

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------
    def read(self, index: int) -> int:
        """Read cell ``index``."""
        self._check(index)
        self.read_count += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """Write cell ``index``; the value wraps to the register width."""
        self._check(index)
        self.write_count += 1
        self._cells[index] = value & self._mask

    def add(self, index: int, delta: int) -> int:
        """Atomic read-modify-write add; returns the new value."""
        self._check(index)
        self.read_count += 1
        self.write_count += 1
        new = (self._cells[index] + delta) & self._mask
        self._cells[index] = new
        return new

    def sub(self, index: int, delta: int) -> int:
        """Atomic read-modify-write subtract; returns the new value."""
        return self.add(index, -delta)

    def modify(self, index: int, fn: Callable[[int], int]) -> int:
        """Atomic read-modify-write with an arbitrary function."""
        self._check(index)
        self.read_count += 1
        self.write_count += 1
        new = fn(self._cells[index]) & self._mask
        self._cells[index] = new
        return new

    def clear(self) -> None:
        """Reset every cell to zero (one write per cell)."""
        self.write_count += self.size
        self._cells.fill(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek(self, index: int) -> int:
        """Read cell ``index`` without counting a hardware access.

        For models and reports that need the value but must not perturb
        the read/write accounting (e.g. the §4 aggregation drain).
        """
        self._check(index)
        return self._cells[index]

    def snapshot(self) -> List[int]:
        """All cells as a fresh dense list (for tests and reports; not an access)."""
        return self._cells.snapshot()

    def nonzero_count(self) -> int:
        """Number of cells holding a non-zero value."""
        return self._cells.nonzero_count()

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._cells]

    @property
    def state_bits(self) -> int:
        """Total state footprint in bits (for the §2 state-size claims)."""
        return self.size * self.width_bits

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(
                f"register {self.name!r} index {index} out of range "
                f"[0, {self.size})"
            )

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, size={self.size}, "
            f"width={self.width_bits}b)"
        )


class SharedRegister(Register):
    """The paper's ``shared_register`` extern.

    Functionally a :class:`Register`, but readable and writable from any
    event-processing thread.  Accesses are attributed to the thread the
    architecture is currently executing (set via :meth:`set_thread`), so
    the reproduction can report which events touched which state — the
    property baseline PISA architectures cannot offer.
    """

    def __init__(
        self,
        size: int,
        width_bits: int = 32,
        name: str = "shared_reg",
    ) -> None:
        super().__init__(size, width_bits, name)
        self._thread: Optional[str] = None
        self.accesses_by_thread: Dict[str, int] = {}

    def set_thread(self, thread: Optional[str]) -> None:
        """Attribute subsequent accesses to ``thread`` (set by the arch)."""
        self._thread = thread

    def _account(self) -> None:
        if self._thread is not None:
            self.accesses_by_thread[self._thread] = (
                self.accesses_by_thread.get(self._thread, 0) + 1
            )

    # read/add run per event record, so each is one frame: _account,
    # _check and Register's body inlined, in that order.
    def read(self, index: int) -> int:
        thread = self._thread
        if thread is not None:
            counts = self.accesses_by_thread
            counts[thread] = counts.get(thread, 0) + 1
        if not 0 <= index < self.size:
            self._check(index)
        self.read_count += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        self._account()
        super().write(index, value)

    def add(self, index: int, delta: int) -> int:
        thread = self._thread
        if thread is not None:
            counts = self.accesses_by_thread
            counts[thread] = counts.get(thread, 0) + 1
        if not 0 <= index < self.size:
            self._check(index)
        self.read_count += 1
        self.write_count += 1
        new = (self._cells[index] + delta) & self._mask
        self._cells[index] = new
        return new

    def modify(self, index: int, fn: Callable[[int], int]) -> int:
        self._account()
        return super().modify(index, fn)

    @property
    def sharing_threads(self) -> List[str]:
        """Names of the threads that have accessed this register."""
        return sorted(self.accesses_by_thread)
