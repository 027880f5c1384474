"""Flow-decision cache: memoize the per-packet pipeline walk.
Design, purity rules, and knobs: [PERFORMANCE.md](PERFORMANCE.md#flow-cache).

Software switches amortize the parser → match-action → deparser walk
the same way real PISA targets do: memoize the pipeline's *net effect*
for a flow (the megaflow cache of OVS, the flow cache every P4 software
target grows) and let later packets of the same flow replay the decision
without re-running the control function.

Correctness is guarded two ways:

* **Versioning** — every :class:`repro.pisa.table.Table` (and every
  :class:`VersionedDict`, the route-table wrapper) bumps a generation
  counter on mutation.  A cached entry carries the generation vector it
  was recorded under; on a mismatch :meth:`FlowCache.revalidate` keeps
  it if only tables changed and every lookup the recorded walk made still
  selects the same action, and evicts it otherwise, before it can serve a
  stale decision.  Only a cache that has met a stale entry logs lookups.
* **Purity detection** — the first traversal of a flow runs under a
  lightweight recording harness: stateful externs get per-instance
  method shims, and the program context / standard metadata are wrapped
  in proxies that flag reads of time- or queue-dependent values.  Flows
  whose control touched read-modify-write state (register reads/writes,
  meter colors, sketch queries, PIFO operations, ``ctx.now_ps``, …) are
  marked **uncacheable** — their handler runs in full on every packet,
  so shared-register semantics (microburst, HULA, NetCache) are never
  short-circuited.  Blind-write externs (``Counter.count``,
  ``CountMinSketch.update``, ``BloomFilter.insert``, window
  ``accumulate``) are *recorded* and re-executed on every replay, so
  their state evolves exactly as if the walk had run.

The purity contract covers the extern data-plane methods listed in
:data:`RECORDABLE_METHODS` / :data:`IMPURE_METHODS`, program attribute
rebinding (``self.packets_seen += 1`` is detected by a before/after
fingerprint of ``vars(program)``), and header/metadata/packet-meta
mutation (captured as the replayed decision).  Handlers that mutate
plain unversioned containers in place (``self.some_dict[k] = v``)
without going through a :class:`~repro.pisa.table.Table` or
:class:`VersionedDict` are outside the contract — every program in this
repository keeps its mutable decision state in tables, versioned route
dicts, or externs.  Handlers read tables through ``lookup``/``apply``;
a walk that calls ``entries()`` or ``entry_count()`` is never revalidated.

The cache is per-switch, enabled by default, and disabled either with
the ``REPRO_FLOW_CACHE=0`` environment variable or the switch's
``flow_cache=False`` constructor argument; a switch parks it while its
program declares a ``shared_register``.  Bus observers keep full
visibility: on the observed dispatch path every packet event is still
published and delivered as usual — only the behavioral walk itself is
answered from the memo, and the cache's own hit/miss/invalidation
counters are surfaced through ``repro events-stats``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.packet.headers import _FIELD_GETTERS, field_getter, field_index
from repro.pisa.externs.counter import Counter
from repro.pisa.externs.meter import Meter
from repro.pisa.externs.pifo import PifoQueue
from repro.pisa.externs.register import Register
from repro.pisa.externs.sketch import BloomFilter, CountMinSketch
from repro.pisa.externs.window import ShiftRegister, SlidingWindow
from repro.pisa.metadata import StandardMetadata
from repro.pisa.table import Table

__all__ = [
    "FLOW_CACHE_ENV",
    "FlowCache",
    "FlowCacheStats",
    "VersionedDict",
    "collecting",
    "env_enabled",
    "flow_key",
    "RECORDABLE_METHODS",
    "IMPURE_METHODS",
]

#: Environment toggle: ``0``/``false``/``off`` disables the cache.
FLOW_CACHE_ENV = "REPRO_FLOW_CACHE"


def env_enabled(name: str, default: bool = True) -> bool:
    """The process-wide default from the on/off environment toggle
    ``name`` (:data:`FLOW_CACHE_ENV` and its siblings
    :data:`~repro.pisa.compile.PIPELINE_COMPILE_ENV` and
    :data:`~repro.pisa.fastpath.FLOW_FASTPATH_ENV`)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")


#: Extern methods that are blind writes: no return value the control can
#: branch on, so they replay as recorded side-effect ops.
RECORDABLE_METHODS = {
    Counter: ("count",),
    CountMinSketch: ("update", "add_signed"),
    BloomFilter: ("insert",),
    ShiftRegister: ("accumulate",),
    SlidingWindow: ("accumulate", "shift_all"),
}

#: Extern methods whose result (or read-modify-write effect) depends on
#: state: touching any of these marks the flow uncacheable.
IMPURE_METHODS = {
    Register: ("read", "write", "add", "sub", "modify", "clear", "peek"),
    Counter: ("read", "read_all", "clear"),
    Meter: ("execute", "tokens"),
    CountMinSketch: ("query", "clear"),
    BloomFilter: ("contains", "clear"),
    ShiftRegister: ("shift", "window_sum", "window_max", "head"),
    SlidingWindow: ("window_sum", "rate_bps"),
    PifoQueue: ("push", "pop", "peek_rank", "drain"),
}

#: Sentinel stored for flows whose control touched impure state.
UNCACHEABLE = object()

#: Active collection scopes: every :class:`FlowCache` and
#: :class:`~repro.pisa.fastpath.FlowFastpath` constructed while a scope
#: is open registers itself there, so instrumentation commands
#: (``repro events-stats``) can report per-switch counters for
#: experiments they did not build themselves.
_COLLECTORS: List[list] = []


@contextmanager
def collecting() -> Iterator[list]:
    """Collect every flow cache and fastpath created inside the block."""
    made: list = []
    _COLLECTORS.append(made)
    try:
        yield made
    finally:
        _COLLECTORS.remove(made)


#: Program-context attributes whose *read* poisons cacheability (they
#: are time-, queue-, or topology-dependent) and methods whose call is
#: an architectural side effect the replay could not reproduce.
_IMPURE_CTX_ATTRS = frozenset(
    {
        "now_ps",
        "link_up",
        "queue_depth_bytes",
        "configure_timer",
        "cancel_timer",
        "generate_packet",
        "raise_user_event",
        "notify_control_plane",
    }
)

#: StandardMetadata attributes whose read is time/queue dependent.
_IMPURE_META_READS = frozenset(
    {
        "ingress_timestamp_ps",
        "egress_timestamp_ps",
        "enq_qdepth_bytes",
        "deq_qdepth_bytes",
    }
)

#: C-level generation reader for the per-lookup version vector.
_GENERATION = attrgetter("generation")


def flow_key(kind, port, pkt) -> tuple:
    """The flow key: event kind, the port(s) the walk is keyed on, the
    payload length, and every header field.

    Keying on *all* fields (not a guessed 5-tuple) makes replay of
    absolute header rewrites sound: identical key implies identical
    input bits, so the recorded output bits are the walk's output.
    ``port`` is the arrival port, or ``(arrival, egress)`` for a walk
    that has an egress port (:meth:`FlowCache.flow_key`).
    """
    parts: List[object] = [kind, port, pkt.payload_len]
    append = parts.append
    extend = parts.extend
    getters = _FIELD_GETTERS
    for header in pkt.headers:
        cls = header.__class__
        append(cls)
        getter = getters.get(cls)
        if getter is None:
            getter = field_getter(cls)
        extend(getter(header))
    return tuple(parts)


def _flow_key_flat(kind, port, payload_len: int, classes, values) -> tuple:
    """:func:`flow_key` over flat value rows (one per header class)
    instead of a packet's headers."""
    parts: List[object] = [kind, port, payload_len]
    for cls, row in zip(classes, values):
        parts.append(cls)
        parts.extend(row)
    return tuple(parts)


def _rewrites(key: tuple, headers) -> Optional[tuple]:
    """Per header, ``(index, ((field, value), ...))`` for every field
    that differs from its value in ``key`` (:func:`flow_key` of the same
    headers before the walk); None when the walk changed the header
    stack itself."""
    rewrites = []
    pos = 3  # past kind, port and payload length
    end = len(key)
    getters = _FIELD_GETTERS
    for idx, header in enumerate(headers):
        cls = header.__class__
        if pos == end or key[pos] is not cls:
            return None
        getter = getters.get(cls)
        if getter is None:
            getter = field_getter(cls)
        after = getter(header)
        start = pos + 1
        pos = start + len(after)
        before = key[start:pos]
        if after != before:
            # field_index iterates the field names in row order.
            changed = [
                (name, value)
                for name, value, old in zip(field_index(cls), after, before)
                if value != old
            ]
            rewrites.append((idx, tuple(changed)))
    if pos != end:
        return None
    return tuple(rewrites)


class VersionedDict(dict):
    """A dict whose mutations bump a generation counter.

    Programs keep route tables (and similar decision state read on the
    packet path but written from non-packet handlers — FRR flips routes
    from LINK_STATUS) in one of these so the flow cache can put the
    mapping in its generation vector.
    """

    __slots__ = ("generation",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.generation = 0

    # dict subclasses with __slots__ pickle their slot state via
    # __reduce_ex__ protocol 2+ item iteration; keep it explicit.
    def __reduce__(self):
        return (type(self), (dict(self),), {"generation": self.generation})

    def __setstate__(self, state) -> None:
        self.generation = state["generation"]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.generation += 1

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self.generation += 1

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self.generation += 1

    def clear(self) -> None:
        super().clear()
        self.generation += 1

    def pop(self, *args):
        result = super().pop(*args)
        self.generation += 1
        return result

    def popitem(self):
        result = super().popitem()
        self.generation += 1
        return result

    def setdefault(self, key, default=None):
        result = super().setdefault(key, default)
        self.generation += 1
        return result


class FlowCacheStats:
    """Hit/miss/invalidation accounting, surfaced by ``events-stats``;
    ``revalidated`` counts stale entries :meth:`FlowCache.revalidate` kept."""

    __slots__ = ("hits", "misses", "uncacheable", "invalidations", "evictions",
                 "revalidated")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.invalidations = 0
        self.evictions = 0
        self.revalidated = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.uncacheable
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"FlowCacheStats(hits={self.hits}, misses={self.misses}, "
            f"uncacheable={self.uncacheable}, "
            f"invalidations={self.invalidations})"
        )


class _RecordingContext:
    """ProgramContext proxy: any target-service access poisons purity."""

    __slots__ = ("_real", "_rec")

    def __init__(self, real, rec: "_Recording") -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_rec", rec)

    def __getattr__(self, name):
        if name in _IMPURE_CTX_ATTRS:
            self._rec.impure = True
        return getattr(self._real, name)


class _RecordingMeta:
    """StandardMetadata proxy flagging reads of time/queue fields.

    Writes and pure reads forward to the real metadata object, so the
    recorded traversal produces exactly the state a bare run would.
    """

    __slots__ = ("_real", "_rec")

    def __init__(self, real: StandardMetadata, rec: "_Recording") -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_rec", rec)

    def __getattr__(self, name):
        if name in _IMPURE_META_READS:
            self._rec.impure = True
        return getattr(self._real, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._real, name, value)

    # The mutators handlers actually call, forwarded explicitly so the
    # proxy costs one indirection instead of __getattr__ + descriptor.
    def drop(self) -> None:
        self._real.drop()

    def send_to_port(self, port: int) -> None:
        self._real.send_to_port(port)

    def send_to_cpu(self) -> None:
        self._real.send_to_cpu()

    def request_recirculation(self) -> None:
        self._real.request_recirculation()

    @property
    def dropped(self) -> bool:
        return self._real.dropped

    @property
    def to_cpu(self) -> bool:
        return self._real.to_cpu

    @property
    def recirculate(self) -> bool:
        return self._real.recirculate


class _ShimOp:
    """Per-instance extern-method shim recording one blind-write call
    into its cache's current recording."""

    __slots__ = ("cache", "extern", "name", "orig")

    def __init__(self, cache: "FlowCache", extern, name: str) -> None:
        self.cache = cache
        self.extern = extern
        self.name = name
        self.orig = getattr(extern, name)

    def __call__(self, *args, **kwargs):
        self.cache._rec.ops.append((self.extern, self.name, args, kwargs))
        return self.orig(*args, **kwargs)


class _ShimImpure:
    """Per-instance extern-method shim marking its cache's current
    recording uncacheable."""

    __slots__ = ("cache", "orig")

    def __init__(self, cache: "FlowCache", extern, name: str) -> None:
        self.cache = cache
        self.orig = getattr(extern, name)

    def __call__(self, *args, **kwargs):
        self.cache._rec.impure = True
        return self.orig(*args, **kwargs)


class _ShimLookup(_ShimOp):
    """Per-instance ``Table.lookup`` shim (``extern`` is the table) logging
    ``(table, key, outcome)`` (:func:`_outcome`) into the recording."""

    __slots__ = ()

    def __call__(self, key):
        action = self.orig(key)
        reads = self.cache._rec.reads
        if reads is not None:
            reads.append((self.extern, key, _outcome(self.extern, action)))
        return action


class _ShimUnlogged(_ShimImpure):
    """Per-instance shim on a table read the lookup log cannot replay
    (``entries()``, ``entry_count()``): the recording keeps no log."""

    __slots__ = ()

    def __call__(self, *args, **kwargs):
        self.cache._rec.reads = None
        return self.orig(*args, **kwargs)


#: The table reads a logging recording shims, and how.
_TABLE_READS = dict(lookup=_ShimLookup, entries=_ShimUnlogged, entry_count=_ShimUnlogged)


def _outcome(table, action) -> tuple:
    """What a ``table`` lookup returning ``action`` decides: whether it
    missed, and the ``Action`` and parameters it (or ``apply``) runs."""
    call = table.default_action if action is None else action
    return (action is None, call.action, call.params)


def _shims(cache: "FlowCache", externs) -> Tuple[Tuple[object, str, object], ...]:
    """``(extern, method, shim)`` for every method a recording shims, in
    install order.  Recordable methods come first on each extern, so a
    method both tables name is shimmed as recordable."""
    plan: List[Tuple[object, str, type]] = []
    for extern in externs:
        for klass, names in RECORDABLE_METHODS.items():
            if isinstance(extern, klass):
                for name in names:
                    if hasattr(extern, name):
                        plan.append((extern, name, _ShimOp))
        for klass, names in IMPURE_METHODS.items():
            if isinstance(extern, klass):
                for name in names:
                    if hasattr(extern, name) and not any(
                        e is extern and n == name for e, n, _s in plan
                    ):
                        plan.append((extern, name, _ShimImpure))
    return tuple((e, n, shim(cache, e, n)) for e, n, shim in plan)


#: How :meth:`FlowCache._fingerprint` records one program attribute,
#: decided once per attribute class: compared with ``==``, skipped, by
#: identity and length, or by identity.
_FP_EQ, _FP_SKIP, _FP_SIZED, _FP_ID = range(4)


def _fingerprint_verdict(cls: type) -> int:
    if issubclass(cls, (int, float, str, bool, type(None))):
        return _FP_EQ
    if issubclass(cls, (Table, VersionedDict)):
        return _FP_SKIP  # the generation vector covers these
    if issubclass(cls, (dict, list, set, tuple)):
        return _FP_SIZED
    if cls.__eq__ is object.__eq__:
        return _FP_EQ  # equality is identity
    return _FP_ID


def _items(names: Tuple[str, ...]):
    """``attrs -> tuple(attrs[name] for name in names)``, or None for
    no names."""
    if len(names) > 1:
        return itemgetter(*names)
    if names:
        get = itemgetter(names[0])
        return lambda attrs: (get(attrs),)
    return None


def _fingerprint_plan(shape: tuple) -> tuple:
    """How :meth:`FlowCache._fingerprint` reads a program whose
    ``vars()`` has ``shape`` (its names, then its value classes):
    ``(shape, names, by_eq, by_id, sized)``.  Public attributes are
    grouped by :func:`_fingerprint_verdict`, each group sorted so the
    fingerprint ignores attribute order."""
    groups: Dict[int, List[str]] = {_FP_EQ: [], _FP_SIZED: [], _FP_ID: []}
    for name, cls in zip(*shape):
        verdict = _fingerprint_verdict(cls)
        if not name.startswith("_") and verdict != _FP_SKIP:
            groups[verdict].append(name)
    eq, sized, ids = (tuple(sorted(groups[v])) for v in (_FP_EQ, _FP_SIZED, _FP_ID))
    return (shape, (eq, sized, ids), _items(eq), _items(sized + ids), _items(sized))


class _Recording:
    """State captured across one recorded traversal."""

    __slots__ = (
        "impure",
        "ops",
        "pkt_meta_snapshot",
        "vars_fingerprint",
        "shimmed",
        "genvec",
        "reads",
    )

    def __init__(self) -> None:
        self.impure = False
        self.ops: List[Tuple[object, str, tuple, dict]] = []
        #: The table lookup log (:class:`_ShimLookup`), if kept.
        self.reads: Optional[list] = None
        self.pkt_meta_snapshot: Dict[str, object] = {}
        self.vars_fingerprint: tuple = ()
        self.shimmed: Tuple[Tuple[object, str, object], ...] = ()
        self.genvec: tuple = ()


class _Entry:
    """One cached flow decision."""

    __slots__ = (
        "genvec",
        "egress_spec",
        "queue_id",
        "priority",
        "enq_meta",
        "deq_meta",
        "rewrites",
        "pkt_meta_writes",
        "payload_len",
        "ops",
        "reads",
    )

    def apply(self, pkt) -> None:
        """Apply the recorded header rewrites, payload length,
        ``pkt.meta`` writes and extern ops to ``pkt``."""
        rewrites = self.rewrites
        if rewrites:
            headers = pkt.headers
            set_ = object.__setattr__
            for idx, pairs in rewrites:
                header = headers[idx]
                # Recorded values came from a real walk, so they fit
                # their declared widths — skip Header.set's range checks.
                for name, value in pairs:
                    set_(header, name, value)
        if self.payload_len is not None:
            pkt.payload_len = self.payload_len
        if self.pkt_meta_writes:
            pkt.meta.update(self.pkt_meta_writes)
        for bound, args, kwargs in self.ops:
            bound(*args, **kwargs)

    def apply_rows(self, classes, values, payload_len: int) -> int:
        """:meth:`apply`'s header rewrites over flat value rows (see
        :func:`_flow_key_flat`); returns the payload length after it."""
        for idx, pairs in self.rewrites:
            index = field_index(classes[idx])
            row = values[idx]
            for name, value in pairs:
                row[index[name]] = value
        return payload_len if self.payload_len is None else self.payload_len


class _FlowMemo:
    """Scaffolding :class:`FlowCache` and
    :class:`~repro.pisa.fastpath.FlowFastpath` share.

    Both start cold, at construction and after unpickling (checkpoints
    and forks carry only the constructor arguments), and join any open
    :func:`collecting` scope when constructed.
    """

    __slots__ = ()

    def __init__(self, sim, limit: int, name: str) -> None:
        if limit <= 0:
            raise ValueError(f"{self._NOUN} limit must be positive, got {limit}")
        self.sim = sim
        self.limit = limit
        self.name = name
        self._start_cold()
        for collector in _COLLECTORS:
            collector.append(self)

    def __getstate__(self):
        return {"sim": self.sim, "limit": self.limit, "name": self.name}

    def __setstate__(self, state) -> None:
        self.sim = state["sim"]
        self.limit = state["limit"]
        self.name = state["name"]
        self._start_cold()

    def summary(self) -> Dict[str, object]:
        """One manifest row for ``state_summary()`` / ``events-stats``."""
        data: Dict[str, object] = {"entries": len(self), "limit": self.limit}
        data.update(self.stats.as_dict())
        return data


class FlowCache(_FlowMemo):
    """Per-switch memo of pipeline decisions keyed by flow.

    ``limit`` bounds the entry count; insertion order is recency order
    (hits refresh), so eviction drops the least recently used flow.
    """

    #: Default maximum number of cached flows per switch.
    DEFAULT_LIMIT = 4096
    #: What the limit bounds, for the constructor's error message.
    _NOUN = "flow cache"

    __slots__ = (
        "sim",
        "limit",
        "stats",
        "_entries",
        "_deps",
        "_shims",
        "_read_shims",
        "_fp_plan",
        "_rec",
        "_program",
        "name",
        "attach_epoch",
    )

    def __init__(self, sim, limit: int = DEFAULT_LIMIT, name: str = "") -> None:
        super().__init__(sim, limit, name)

    def _start_cold(self) -> None:
        """Empty memo, zeroed stats, no program bound."""
        self.stats = FlowCacheStats()
        self._entries: Dict[tuple, object] = {}
        self._deps: List[object] = []
        self._shims: Tuple[Tuple[object, str, object], ...] = ()
        #: ``_shims`` plus table-read shims, once :meth:`revalidate` ran.
        self._read_shims: Optional[Tuple[Tuple[object, str, object], ...]] = None
        self._fp_plan: Optional[tuple] = None
        #: The recording the installed shims write into.
        self._rec: Optional[_Recording] = None
        self._program = None
        self.attach_epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, program) -> None:
        """Bind to a loaded program: discover versioned deps and build
        the extern shims every recording installs."""
        self._program = program
        self._entries.clear()
        # Bumped so path-level consumers (the flow fastpath) can tell a
        # re-attach from a coincidentally equal fresh generation vector.
        self.attach_epoch += 1
        deps: List[object] = []
        externs: List[object] = []
        if program is not None:
            for _name, value in sorted(vars(program).items()):
                if isinstance(value, (Table, VersionedDict)):
                    deps.append(value)
            for _name, extern in program.externs():
                externs.append(extern)
        self._deps = deps
        self._shims = _shims(self, externs)
        self._read_shims = None
        self._fp_plan = None

    def clear(self) -> None:
        """Drop every cached flow (entries only; stats survive)."""
        self._entries.clear()

    @property
    def attached(self) -> bool:
        """Whether a program is bound (False while parked by its switch)."""
        return self._program is not None

    # Checkpoints drop the memo: a restored simulation starts cold and
    # rebuilds warm, so resumed runs never replay decisions recorded
    # under pre-checkpoint state.
    def __getstate__(self):
        return {**super().__getstate__(), "program": self._program}

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        program = state["program"]
        if program is not None:
            self.attach(program)

    # ------------------------------------------------------------------
    # Key / generation vector
    # ------------------------------------------------------------------
    def flow_key(self, kind, pkt, meta) -> tuple:
        """:func:`flow_key` for a walk of ``kind`` under ``meta``.

        A walk whose metadata names an egress port (the baseline's
        egress walks) is keyed on it as well, so a handler that branches
        on ``meta.egress_port`` never replays another port's decision.
        """
        if meta.egress_port is None:
            return flow_key(kind, meta.ingress_port, pkt)
        return flow_key(kind, (meta.ingress_port, meta.egress_port), pkt)

    def _generation_vector(self) -> tuple:
        return tuple(map(_GENERATION, self._deps))

    # ------------------------------------------------------------------
    # Lookup / replay
    # ------------------------------------------------------------------
    def lookup(self, key: tuple):
        """The valid entry for ``key``: an :class:`_Entry`,
        :data:`UNCACHEABLE`, or None (miss)."""
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            return None
        if entry is UNCACHEABLE:
            self.stats.uncacheable += 1
            return entry
        if entry.genvec != self._generation_vector() and not self.revalidate(entry):
            del entries[key]
            self.stats.invalidations += 1
            return None
        self.stats.hits += 1
        return entry

    def revalidate(self, entry: "_Entry") -> bool:
        """Whether the stale ``entry`` holds, refreshing its generation
        vector in place if so: it has a lookup log, only :class:`Table`
        deps changed, and every logged lookup, run again, has the same
        :func:`_outcome`.  The first call turns on lookup logging."""
        if self._read_shims is None:
            self._read_shims = self._shims + tuple(
                (table, name, shim(self, table, name))
                for table in self._deps
                if isinstance(table, Table)
                for name, shim in _TABLE_READS.items()
                if hasattr(table, name)
            )
        genvec = self._generation_vector()
        if entry.reads is None or any(
            old != new and not isinstance(dep, Table)
            for dep, old, new in zip(self._deps, entry.genvec, genvec)
        ):
            return False
        for table, key, outcome in entry.reads:
            # The class method: a recording's shim may sit on the table.
            if _outcome(table, type(table).lookup(table, key)) != outcome:
                return False
        entry.genvec = genvec
        self.stats.revalidated += 1
        return True

    def verify_entries(self) -> int:
        """Purge every stale cached entry :meth:`revalidate` rejects.

        Lookup already does this lazily, so the cache never *serves* a
        stale decision; this eager sweep exists for invariant monitors
        (:class:`repro.faults.monitors.FlowCacheCoherenceMonitor`) that
        want to assert, right after a control-plane churn fault, that no
        pre-churn entry survives unexamined.  Returns the number of
        entries purged (each also counted in ``stats.invalidations``).
        """
        genvec = self._generation_vector()
        entries = self._entries
        stale = [
            key
            for key, entry in entries.items()
            if entry is not UNCACHEABLE and entry.genvec != genvec
            and not self.revalidate(entry)
        ]
        for key in stale:
            del entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def replay(self, entry: "_Entry", pkt, meta) -> None:
        """Apply a recorded decision to ``pkt``/``meta``."""
        entry.apply(pkt)
        meta.egress_spec = entry.egress_spec
        meta.queue_id = entry.queue_id
        meta.priority = entry.priority
        if entry.enq_meta:
            meta.enq_meta.update(entry.enq_meta)
        if entry.deq_meta:
            meta.deq_meta.update(entry.deq_meta)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, ctx, pkt, meta):
        """Start recording one traversal.

        Returns ``(recording, wrapped_ctx, wrapped_meta)``; the wrapped
        objects go to the handler, the recording to :meth:`commit`.
        """
        rec = self._rec = _Recording()
        rec.genvec = self._generation_vector()
        rec.pkt_meta_snapshot = dict(pkt.meta)
        rec.vars_fingerprint = self._fingerprint()
        rec.reads = None if self._read_shims is None else []
        shims = rec.shimmed = self._read_shims or self._shims
        for extern, name, shim in shims:
            setattr(extern, name, shim)
        return rec, _RecordingContext(ctx, rec), _RecordingMeta(meta, rec)

    def abort(self, rec: "_Recording") -> None:
        """Tear down shims without storing (handler raised)."""
        self._unshim(rec)

    def commit(self, rec: "_Recording", key: tuple, pkt, meta) -> None:
        """Finish recording: store a replayable entry or the sentinel.

        ``key`` is the flow key the walk was looked up under, taken
        before it ran (:meth:`flow_key`): it holds every input field,
        so the header rewrites and the payload length are diffed
        against it."""
        self._unshim(rec)
        stats = self.stats
        rewrites = None
        if (
            not rec.impure
            and rec.genvec == self._generation_vector()
            and rec.vars_fingerprint == self._fingerprint()
        ):
            rewrites = _rewrites(key, pkt.headers)
        if rewrites is None:
            # Impure control, self-mutating tables, program attribute
            # mutation, or a structural header change (push/pop): the
            # walk must run for every packet of this flow.
            self._store(key, UNCACHEABLE)
            stats.uncacheable += 1
            return
        entry = _Entry()
        entry.genvec = rec.genvec
        entry.egress_spec = meta.egress_spec
        entry.queue_id = meta.queue_id
        entry.priority = meta.priority
        entry.enq_meta = dict(meta.enq_meta) if meta.enq_meta else None
        entry.deq_meta = dict(meta.deq_meta) if meta.deq_meta else None
        entry.rewrites = rewrites
        payload_len = pkt.payload_len
        entry.payload_len = payload_len if payload_len != key[2] else None
        if pkt.meta != rec.pkt_meta_snapshot:
            entry.pkt_meta_writes = {
                k: v
                for k, v in pkt.meta.items()
                if rec.pkt_meta_snapshot.get(k, _MISSING) != v
            }
            removed = rec.pkt_meta_snapshot.keys() - pkt.meta.keys()
            if removed:
                # Key deletion can't be replayed by a dict update.
                self._store(key, UNCACHEABLE)
                stats.uncacheable += 1
                return
        else:
            entry.pkt_meta_writes = None
        # _unshim ran above, so getattr binds the real extern methods;
        # pre-binding here saves a getattr per op per replayed packet.
        entry.ops = tuple(
            (getattr(extern, name), args, kwargs)
            for extern, name, args, kwargs in rec.ops
        )
        entry.reads = None if rec.reads is None else tuple(rec.reads)
        self._store(key, entry)
        stats.misses += 1

    def _store(self, key: tuple, value) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self.limit:
            entries.pop(next(iter(entries)))
            self.stats.evictions += 1
        entries[key] = value

    def _unshim(self, rec: "_Recording") -> None:
        self._rec = None
        for extern, name, _shim in rec.shimmed:
            try:
                delattr(extern, name)
            except AttributeError:
                pass

    def _fingerprint(self) -> tuple:
        """Shallow fingerprint of program attributes.

        Scalars by value (catches ``self.packets_seen += 1``); sized
        containers by (id, len); other objects by identity —
        versioned/extern/table state is covered by the generation
        vector and the shims instead.  The reading plan is rebuilt only
        when the attribute names or value classes change
        (:func:`_fingerprint_plan`).
        """
        program = self._program
        if program is None:
            return ()
        attrs = vars(program)
        shape = (tuple(attrs), tuple(map(type, attrs.values())))
        plan = self._fp_plan
        if plan is None or plan[0] != shape:
            plan = self._fp_plan = _fingerprint_plan(shape)
        _shape, names, by_eq, by_id, sized = plan
        return (
            names,
            by_eq(attrs) if by_eq else (),
            tuple(map(id, by_id(attrs))) if by_id else (),
            tuple(map(len, sized(attrs))) if sized else (),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"FlowCache(entries={len(self._entries)}/{self.limit}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


_MISSING = object()
