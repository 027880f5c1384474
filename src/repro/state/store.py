"""State storage for every stateful extern and state model.

The paper's central mechanism is *shared state* between event threads
and packet threads (shared registers, §4's merged-pipeline design).
Before this module each extern managed a raw Python list ad-hoc and
only two of them could even be snapshotted.  :class:`StateStore` is the
single allocation point for all of that state; its one representation,
:class:`DenseStore`, is a :class:`list` subclass, so ``store[i]`` is
C-speed list indexing on the packet/event hot paths.

Every store registers itself in a process-wide weak registry so
whole-simulator checkpoints (:mod:`repro.sim.checkpoint`) can record a
manifest of live state, and so tools can answer "how much state does
this topology hold".
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, List

__all__ = [
    "StateStore",
    "DenseStore",
    "make_store",
    "registered_stores",
    "store_manifest",
    "total_state_cells",
]

#: Process-wide registry of live stores (weak: stores die with owners).
#: Keyed by ``id`` because list-backed stores are unhashable.
_REGISTRY: Dict[int, "weakref.ref[StateStore]"] = {}


class StateStore:
    """A fixed-size indexed cell array.

    Subclasses provide ``__getitem__``/``__setitem__`` plus the bulk
    operations below: ``size`` cells, every cell initially ``default``,
    and a ``snapshot()`` that materialises the dense contents.
    """

    kind = "abstract"

    #: set by subclasses in __init__
    size: int
    default: Any
    name: str

    # -- element access -------------------------------------------------
    def __getitem__(self, index: int) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __setitem__(self, index: int, value: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size

    # -- bulk operations ------------------------------------------------
    def snapshot(self) -> List[Any]:
        """Dense copy of all cells."""
        raise NotImplementedError

    def load(self, values: Iterable[Any]) -> None:
        """Replace the full contents from a dense iterable of ``size`` values."""
        raise NotImplementedError

    def fill(self, value: Any) -> None:
        """Set every cell to ``value`` in place (identity is preserved)."""
        raise NotImplementedError

    # -- reductions (subclasses override with faster paths) -------------
    def nonzero_count(self) -> int:
        """Number of cells holding a truthy value."""
        return sum(1 for v in self.snapshot() if v)

    def sum_values(self) -> Any:
        """Sum over all cells."""
        return sum(self.snapshot())

    def max_value(self) -> Any:
        """Maximum over all cells."""
        return max(self.snapshot())

    # -- checkpoint support ---------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Manifest row: kind, geometry, and population."""
        return {
            "name": self.name,
            "kind": self.kind,
            "size": self.size,
            "default": self.default,
            "populated": self.nonzero_count(),
        }

    def to_state(self) -> Dict[str, Any]:
        """Portable dense dump (see :meth:`from_state`)."""
        return {
            "kind": self.kind,
            "size": self.size,
            "default": self.default,
            "name": self.name,
            "cells": self.snapshot(),
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "StateStore":
        """Rebuild a store from :meth:`to_state`.

        ``state["kind"]`` is not consulted: the dump is dense whatever
        representation wrote it.
        """
        store = make_store(
            state["size"], default=state["default"], name=state["name"]
        )
        store.load(state["cells"])
        return store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, size={self.size}, "
            f"default={self.default!r})"
        )


def _register(store: "StateStore") -> None:
    key = id(store)

    def _cleanup(ref: "weakref.ref[StateStore]", key: int = key) -> None:
        if _REGISTRY.get(key) is ref:
            del _REGISTRY[key]

    _REGISTRY[key] = weakref.ref(store, _cleanup)


class DenseStore(list, StateStore):
    """Array-backed store: a real ``list``, so indexing stays C-speed.

    It keeps the hot paths allocation-free and at raw-list cost because
    ``store[i]`` *is* ``list.__getitem__``.
    """

    kind = "dense"

    def __init__(self, size: int, default: Any = 0, name: str = "store") -> None:
        list.__init__(self, [default] * size)
        self.size = size
        self.default = default
        self.name = name
        _register(self)

    # list already provides __getitem__/__setitem__/__len__ (len == size
    # by construction; load() enforces it).

    def snapshot(self) -> List[Any]:
        return list(self)

    def load(self, values: Iterable[Any]) -> None:
        values = list(values)
        if len(values) != self.size:
            raise ValueError(
                f"{self.name}: load of {len(values)} values into size {self.size}"
            )
        self[:] = values

    def fill(self, value: Any) -> None:
        for i in range(self.size):
            list.__setitem__(self, i, value)

    def nonzero_count(self) -> int:
        return sum(1 for v in self if v)

    def sum_values(self) -> Any:
        return sum(self)

    def max_value(self) -> Any:
        return max(self)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        _register(self)

    def __reduce_ex__(self, protocol: int):  # noqa: D105
        # Protocol-2 list pickling feeds items via extend(); carry the
        # instance dict alongside so unpickled stores re-register.
        return (_rebuild_dense, (self.__dict__.copy(), list(self)))


def _rebuild_dense(attrs: Dict[str, Any], items: List[Any]) -> "DenseStore":
    store = DenseStore.__new__(DenseStore)
    list.extend(store, items)
    store.__setstate__(attrs)
    return store


def make_store(size: int, default: Any = 0, name: str = "store") -> StateStore:
    """Allocate a store of ``size`` cells initialised to ``default``."""
    if size < 0:
        raise ValueError(f"{name}: store size must be >= 0, got {size}")
    return DenseStore(size, default=default, name=name)


def registered_stores() -> List[StateStore]:
    """Live stores in this process, sorted by name for stable output."""
    stores = (ref() for ref in list(_REGISTRY.values()))
    return sorted(
        (s for s in stores if s is not None),
        key=lambda s: (s.name, s.kind, id(s)),
    )


def store_manifest() -> List[Dict[str, Any]]:
    """One :meth:`StateStore.describe` row per live store."""
    return [store.describe() for store in registered_stores()]


def total_state_cells() -> int:
    """Total logical cells across all live stores."""
    return sum(store.size for store in registered_stores())
