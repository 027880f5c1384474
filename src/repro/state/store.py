"""State storage for every stateful extern and state model.

The paper's central mechanism is *shared state* between event threads
and packet threads (shared registers, §4's merged-pipeline design).
Before this module each extern managed a raw Python list ad-hoc and
only two of them could even be snapshotted.  :class:`StateStore` is the
single allocation point for all of that state.  It is a :class:`list`
subclass, so ``store[i]`` is C-speed list indexing on the packet/event
hot paths, and it pickles as a list plus its ``size``/``default``/
``name`` attributes: whole-simulator checkpoints
(:mod:`repro.sim.checkpoint`) carry stores inside the object graph and
describe the ones they carried in their header.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

__all__ = ["StateStore", "make_store"]


class StateStore(list):
    """A fixed-size indexed cell array: ``size`` cells, every cell
    initially ``default``.

    A real ``list``, so indexing stays C-speed: ``store[i]`` *is*
    ``list.__getitem__``, and ``len(store) == size`` by construction
    (:meth:`load` enforces it).
    """

    def __init__(self, size: int, default: Any = 0, name: str = "store") -> None:
        list.__init__(self, [default] * size)
        self.size = size
        self.default = default
        self.name = name

    # -- bulk operations ------------------------------------------------
    def snapshot(self) -> List[Any]:
        """Dense copy of all cells."""
        return list(self)

    def load(self, values: Iterable[Any]) -> None:
        """Replace the full contents from a dense iterable of ``size`` values."""
        values = list(values)
        if len(values) != self.size:
            raise ValueError(
                f"{self.name}: load of {len(values)} values into size {self.size}"
            )
        self[:] = values

    def fill(self, value: Any) -> None:
        """Set every cell to ``value`` in place (identity is preserved)."""
        self[:] = [value] * self.size

    # -- reductions -----------------------------------------------------
    def nonzero_count(self) -> int:
        """Number of cells holding a truthy value."""
        return sum(map(bool, self))

    def sum_values(self) -> Any:
        """Sum over all cells."""
        return sum(self)

    def max_value(self) -> Any:
        """Maximum over all cells."""
        return max(self)

    def describe(self) -> Dict[str, Any]:
        """Manifest row: name, geometry, and population."""
        return {
            "name": self.name,
            "size": self.size,
            "default": self.default,
            "populated": self.nonzero_count(),
        }


def make_store(size: int, default: Any = 0, name: str = "store") -> StateStore:
    """Allocate a store of ``size`` cells initialised to ``default``."""
    if size < 0:
        raise ValueError(f"{name}: store size must be >= 0, got {size}")
    return StateStore(size, default=default, name=name)
