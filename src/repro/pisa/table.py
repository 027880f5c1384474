"""Match-action tables: exact, longest-prefix-match, and ternary.

Tables are populated by the control plane (:mod:`repro.control.plane`)
and applied by control blocks during packet processing.  ``apply``
returns the matching entry's bound action (or the default action) which
the caller then executes — the split mirrors P4's ``table.apply()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.pisa.action import NO_ACTION, ActionCall


@dataclass
class TableEntry:
    """One table entry: a match key plus the bound action.

    The key's meaning depends on the table kind: a plain tuple for exact
    tables, ``(prefix, prefix_len)`` for LPM, ``(value, mask, priority)``
    for ternary.
    """

    key: Tuple
    action: ActionCall

    def __repr__(self) -> str:
        return f"TableEntry({self.key} -> {self.action})"


class Table:
    """Base class with entry bookkeeping and the default action.

    Any entry mutation (:meth:`insert` / :meth:`remove` in subclasses)
    or :meth:`set_default` bumps :attr:`generation` — the version the
    flow-decision cache (:mod:`repro.pisa.flowcache`) and compiled walks
    record, so a table change evicts every dependent cached flow before
    the next packet can see a stale decision.

    Swapping an entry's *action* in place must go through
    :meth:`update_action` (subclasses) so it bumps the generation too:
    mutating the stored :class:`ActionCall` object directly leaves the
    flow cache serving the old behavior.
    """

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError(f"table size must be positive, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.default_action: ActionCall = NO_ACTION.bind()
        self.hit_count = 0
        self.miss_count = 0
        #: Bumped on every mutation; version stamp for external caches.
        self.generation = 0

    def _mutated(self) -> None:
        """Entry/default change: advance the generation."""
        self.generation += 1

    def set_default(self, action: ActionCall) -> None:
        """Set the action returned on a miss."""
        self.default_action = action
        self._mutated()

    def entry_count(self) -> int:
        """Number of installed entries."""
        raise NotImplementedError

    def _check_capacity(self) -> None:
        if self.entry_count() >= self.max_entries:
            raise OverflowError(
                f"table {self.name!r} is full ({self.max_entries} entries)"
            )

    def lookup(self, key: Tuple) -> Optional[ActionCall]:
        """Return the matching action or None (no default, no counters)."""
        raise NotImplementedError

    def apply(self, key: Tuple) -> ActionCall:
        """P4-style apply: returns the matched or default action."""
        action = self.lookup(key)
        if action is None:
            self.miss_count += 1
            return self.default_action
        self.hit_count += 1
        return action

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.entry_count()}/{self.max_entries} entries)"
        )


class ExactTable(Table):
    """Exact-match table: keys are tuples compared for equality."""

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        super().__init__(name, max_entries)
        self._entries: Dict[Tuple, ActionCall] = {}

    def insert(self, key: Tuple, action: ActionCall) -> None:
        """Install or overwrite the entry for ``key``."""
        if key not in self._entries:
            self._check_capacity()
        self._entries[key] = action
        self._mutated()

    def remove(self, key: Tuple) -> None:
        """Remove the entry for ``key``; KeyError if absent."""
        del self._entries[key]
        self._mutated()

    def update_action(self, key: Tuple, action: ActionCall) -> None:
        """Replace the action of an existing entry; KeyError if absent.

        The control plane's path for changing what an installed entry
        *does* (e.g. re-pointing a nexthop).  Unlike mutating the bound
        :class:`ActionCall` in place, this bumps the generation counter.
        """
        if key not in self._entries:
            raise KeyError(f"table {self.name!r} has no entry {key!r}")
        self._entries[key] = action
        self._mutated()

    def entry_count(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple) -> Optional[ActionCall]:
        return self._entries.get(key)


class LpmTable(Table):
    """Longest-prefix-match table over a single integer field.

    Keys at insert are ``(prefix, prefix_len)`` over ``width_bits``-wide
    values; lookup takes the full value and picks the longest matching
    prefix.
    """

    def __init__(self, name: str, width_bits: int = 32, max_entries: int = 1024) -> None:
        super().__init__(name, max_entries)
        self.width_bits = width_bits
        # prefix_len -> {masked_prefix: action}
        self._by_length: Dict[int, Dict[int, ActionCall]] = {}
        # (prefix_len, mask, bucket) descending — rebuilt on mutation so
        # lookups don't re-sort and re-derive masks per packet.
        self._ordered: List[Tuple[int, int, Dict[int, ActionCall]]] = []

    def _reindex(self) -> None:
        self._ordered = [
            (length, self._mask(length), self._by_length[length])
            for length in sorted(self._by_length, reverse=True)
        ]
        self._mutated()

    def insert(self, prefix: int, prefix_len: int, action: ActionCall) -> None:
        """Install a ``prefix/prefix_len`` entry."""
        if not 0 <= prefix_len <= self.width_bits:
            raise ValueError(
                f"prefix length {prefix_len} out of range [0, {self.width_bits}]"
            )
        mask = self._mask(prefix_len)
        bucket = self._by_length.setdefault(prefix_len, {})
        key = prefix & mask
        if key not in bucket:
            self._check_capacity()
        bucket[key] = action
        self._reindex()

    def remove(self, prefix: int, prefix_len: int) -> None:
        """Remove a ``prefix/prefix_len`` entry; KeyError if absent."""
        mask = self._mask(prefix_len)
        del self._by_length[prefix_len][prefix & mask]
        self._reindex()

    def update_action(self, prefix: int, prefix_len: int, action: ActionCall) -> None:
        """Replace the action of an existing prefix entry; KeyError if absent."""
        mask = self._mask(prefix_len)
        bucket = self._by_length[prefix_len]
        key = prefix & mask
        if key not in bucket:
            raise KeyError(f"table {self.name!r} has no entry {prefix}/{prefix_len}")
        bucket[key] = action
        self._reindex()

    def _mask(self, prefix_len: int) -> int:
        if prefix_len == 0:
            return 0
        return ((1 << prefix_len) - 1) << (self.width_bits - prefix_len)

    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self._by_length.values())

    def lookup(self, key: Tuple) -> Optional[ActionCall]:
        (value,) = key
        for _length, mask, bucket in self._ordered:
            action = bucket.get(value & mask)
            if action is not None:
                return action
        return None

    def lookup_value(self, value: int) -> Optional[ActionCall]:
        """Convenience single-value lookup."""
        return self.lookup((value,))

    def apply_value(self, value: int) -> ActionCall:
        """Convenience single-value apply."""
        return self.apply((value,))


class TernaryTable(Table):
    """Ternary table: entries carry (value, mask, priority) per field.

    Lower priority wins among multiple matches, as in hardware TCAMs
    where entries are ordered.
    """

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        super().__init__(name, max_entries)
        # Each entry: (values, masks, priority, action)
        self._entries: List[Tuple[Tuple[int, ...], Tuple[int, ...], int, ActionCall]] = []

    def insert(
        self,
        values: Tuple[int, ...],
        masks: Tuple[int, ...],
        priority: int,
        action: ActionCall,
    ) -> None:
        """Install a ternary entry with explicit priority."""
        if len(values) != len(masks):
            raise ValueError("values and masks must have equal arity")
        self._check_capacity()
        self._entries.append(
            (tuple(v & m for v, m in zip(values, masks)), tuple(masks), priority, action)
        )
        self._entries.sort(key=lambda e: e[2])
        self._mutated()

    def remove(self, values: Tuple[int, ...], masks: Tuple[int, ...]) -> None:
        """Remove the entry matching ``values``/``masks``; KeyError if absent."""
        masked = tuple(v & m for v, m in zip(values, masks))
        for i, (evalues, emasks, _priority, _action) in enumerate(self._entries):
            if evalues == masked and emasks == tuple(masks):
                del self._entries[i]
                self._mutated()
                return
        raise KeyError(f"table {self.name!r} has no entry {values!r}/{masks!r}")

    def update_action(
        self,
        values: Tuple[int, ...],
        masks: Tuple[int, ...],
        action: ActionCall,
    ) -> None:
        """Replace the action of an existing ternary entry; KeyError if absent."""
        masked = tuple(v & m for v, m in zip(values, masks))
        for i, (evalues, emasks, priority, _action) in enumerate(self._entries):
            if evalues == masked and emasks == tuple(masks):
                self._entries[i] = (evalues, emasks, priority, action)
                self._mutated()
                return
        raise KeyError(f"table {self.name!r} has no entry {values!r}/{masks!r}")

    def entry_count(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple) -> Optional[ActionCall]:
        for values, masks, _priority, action in self._entries:
            if len(key) != len(values):
                continue
            if all((k & m) == v for k, v, m in zip(key, values, masks)):
                return action
        return None
