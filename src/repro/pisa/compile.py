"""Compiled pipeline specialization: exec-generated table walks.

Every table-driven program re-walks its match-action graph per packet
through ``apply``'s generic machinery, although the graph is fixed at
program-load time.  When the program describes its control flow with a
:class:`PipelineSpec`, :func:`make_walk` folds it: one fused pipeline
*walk* with table lookups inlined against the concrete match kinds and
currently installed entries, action bodies fused into the caller, and
constant branches folded away.  A switch's packet-event runner
(:meth:`repro.arch.base.SwitchBase._runner`) swaps its interpreted
walk for the compiled one after a warm-up.

Invalidation reuses the generation vectors the flow-decision cache
(:mod:`repro.pisa.flowcache`) relies on: a compiled walk embeds the
``generation`` of every table it inlined and guards itself with plain
integer compares.  A control-plane mutation bumps a generation, the
guard trips on the next packet, and the walk regenerates against the
new entries (or falls back to the interpreted handler if the new
contents stopped being foldable).

The interpreter remains the reference semantics.  A compiled switch
must be *behaviorally byte-identical* — same counters, same drops, same
delivery order — and ``REPRO_PIPELINE_COMPILE=0`` (or the
``compile=False`` switch kwarg) restores the interpreted path
wholesale; the equivalence tests drive both and compare fingerprints.

Known limitation, by design: an action body that mutates a table of
the *same* pipeline mid-walk would be visible to the interpreter's
live lookups but not to an already-entered compiled walk.  Programs
with such actions must not provide a :class:`PipelineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.events import EventType
from repro.pisa.action import (
    DROP,
    FORWARD,
    NO_ACTION,
    SET_PRIORITY,
    TO_CPU,
    Action,
    ActionCall,
)
from repro.pisa.metadata import CPU_PORT, DROP_PORT
from repro.pisa.table import ExactTable, LpmTable, Table, TernaryTable

#: Environment toggle: ``0``/``false``/``off`` disables compilation
#: (parsed by :func:`repro.pisa.flowcache.env_enabled`).
PIPELINE_COMPILE_ENV = "REPRO_PIPELINE_COMPILE"


class CompileSkip(Exception):
    """Raised during specialization when a spec is not compilable as
    written (unfoldable actions where a fold is required, unknown
    directive, heterogeneous value-folded table); the caller falls back
    to the interpreted handler."""


@dataclass
class PipelineSpec:
    """A program's compilable description of one packet-event control.

    ``source`` is the control flow as straight-line Python over ``pkt``
    and ``meta``, with table applications written as directives the
    specializer expands against the live tables:

    * ``%apply <table> <key-expr>[, <key-expr>...]`` — inline
      ``Table.apply(key).execute(pkt, meta)`` for an exact or ternary
      table, hit/miss counters included.
    * ``%lpm <table> <value-expr> -> <var>`` — inline
      ``LpmTable.lookup_value(value)`` (no counters, like the method),
      binding ``<var>`` to the entry's *folded value* or None.  Every
      entry's action must share one value-foldable action function.

    ``tables`` names the tables the directives refer to; their
    generations form the walk's invalidation guard.  ``names`` is extra
    namespace the source (and any registered fold bodies) may use —
    header classes, bound extern methods, the program itself.
    """

    source: str
    tables: Dict[str, Table]
    names: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Action folding registries
# ----------------------------------------------------------------------
# const fold: params -> source lines (the action body fused at the call
# site), or None when these particular params are not foldable.
_CONST_FOLDS: Dict[Callable, Callable[[Dict[str, int]], Optional[List[str]]]] = {}
# value fold: (params -> compact value or None, value-var -> body lines).
# Used where every entry of a table shares one action function, so the
# table collapses to a dict of folded values and one fused body.
_VALUE_FOLDS: Dict[
    Callable,
    Tuple[Callable[[Dict[str, int]], object], Callable[[str], List[str]]],
] = {}


def register_const_fold(
    action: Action, fold: Callable[[Dict[str, int]], Optional[List[str]]]
) -> None:
    """Register the fused source body for ``action`` (keyed by its fn)."""
    _CONST_FOLDS[action.fn] = fold


def register_value_fold(
    action: Action,
    to_value: Callable[[Dict[str, int]], object],
    body: Callable[[str], List[str]],
) -> None:
    """Register a value fold: ``to_value`` compresses bound params into
    the per-entry value stored in the specialized lookup structure,
    ``body`` emits the shared fused body reading that value."""
    _VALUE_FOLDS[action.fn] = (to_value, body)


def _fold_port(params: Dict[str, int]) -> Optional[List[str]]:
    port = params.get("port")
    if isinstance(port, int) and port >= 0:
        return [f"meta.egress_spec = {port}"]
    return None


def _fold_priority(params: Dict[str, int]) -> Optional[List[str]]:
    priority = params.get("priority")
    if isinstance(priority, int):
        return [f"meta.priority = {priority}"]
    return None


register_const_fold(NO_ACTION, lambda params: [])
register_const_fold(DROP, lambda params: [f"meta.egress_spec = {DROP_PORT}"])
register_const_fold(TO_CPU, lambda params: [f"meta.egress_spec = {CPU_PORT}"])
register_const_fold(FORWARD, _fold_port)
register_const_fold(SET_PRIORITY, _fold_priority)


# ----------------------------------------------------------------------
# Walk generation (the table/action-graph specializer)
# ----------------------------------------------------------------------
def _split_key(raw: str) -> List[str]:
    """Split a directive key on top-level commas (exprs may not contain
    commas themselves; specs keep key expressions simple by contract)."""
    parts = [p.strip() for p in raw.split(",")]
    return [p for p in parts if p]


def _action_lines(
    call: ActionCall, ns: Dict[str, object], tag: str
) -> List[str]:
    """The fused body for one bound action: its registered const fold,
    or a direct ``execute`` on the bound call as the generic escape."""
    fold = _CONST_FOLDS.get(call.action.fn)
    if fold is not None:
        lines = fold(call.params)
        if lines is not None:
            return list(lines)
    ns[tag] = call
    return [f"{tag}.execute(pkt, meta)"]


def _expand_ternary(
    uid: int, table: TernaryTable, keys: List[str], ns: Dict[str, object]
) -> List[str]:
    """A priority-ordered ternary match as an if/elif chain of masked
    integer compares, zero-mask terms folded out."""
    tvar = f"_T{uid}"
    ns[tvar] = table
    arity = len(keys)
    branches: List[Tuple[str, List[str]]] = []
    for i, (values, masks, _priority, action) in enumerate(table._entries):
        if len(values) != arity:
            continue  # can never match this call site's key arity
        terms = [
            f"({keys[j]} & {masks[j]}) == {values[j]}"
            for j in range(arity)
            if masks[j] != 0  # zero masks match anything: folded out
        ]
        cond = " and ".join(terms) or "True"
        branches.append((cond, _action_lines(action, ns, f"_A{uid}_{i}")))
    miss = [f"{tvar}.miss_count += 1"]
    miss += _action_lines(table.default_action, ns, f"_D{uid}") or ["pass"]
    if not branches:
        return miss
    lines: List[str] = []
    for i, (cond, body) in enumerate(branches):
        lines.append(("if " if i == 0 else "elif ") + cond + ":")
        lines.append(f"    {tvar}.hit_count += 1")
        lines += [f"    {ln}" for ln in (body or ["pass"])]
    lines.append("else:")
    lines += [f"    {ln}" for ln in miss]
    return lines


def _expand_exact(
    uid: int, table: ExactTable, keys: List[str], ns: Dict[str, object]
) -> List[str]:
    """An exact match as one dict probe.  Homogeneous value-foldable
    tables collapse to folded-value dicts with one fused body; anything
    else probes the live entry dict and executes the bound action."""
    tvar, xvar = f"_T{uid}", f"_X{uid}"
    ns[tvar] = table
    key_expr = f"({', '.join(keys)},)"
    fns = {call.action.fn for call in table._entries.values()}
    folded = None
    if len(fns) == 1:
        fold = _VALUE_FOLDS.get(next(iter(fns)))
        if fold is not None:
            to_value, body = fold
            values = {k: to_value(c.params) for k, c in table._entries.items()}
            if all(v is not None for v in values.values()):
                folded = (values, body)
    vvar = f"_v{uid}"
    miss = [f"    {tvar}.miss_count += 1"]
    miss += [
        f"    {ln}"
        for ln in (_action_lines(table.default_action, ns, f"_D{uid}") or ["pass"])
    ]
    if folded is not None:
        values, body = folded
        ns[xvar] = values
        return [
            f"{vvar} = {xvar}.get({key_expr})",
            f"if {vvar} is None:",
            *miss,
            "else:",
            f"    {tvar}.hit_count += 1",
            *[f"    {ln}" for ln in body(vvar)],
        ]
    ns[xvar] = table._entries  # live dict: guard recompiles on mutation
    return [
        f"{vvar} = {xvar}.get({key_expr})",
        f"if {vvar} is None:",
        *miss,
        "else:",
        f"    {tvar}.hit_count += 1",
        f"    {vvar}.execute(pkt, meta)",
    ]


def _expand_lpm(
    uid: int, table: LpmTable, value_expr: str, var: str, ns: Dict[str, object]
) -> List[str]:
    """An LPM lookup as a chain of masked dict probes over folded-value
    buckets, longest prefix first; ``var`` binds the folded value."""
    entries = [
        call for _len, _mask, bucket in table._ordered for call in bucket.values()
    ]
    fns = {call.action.fn for call in entries}
    if len(fns) > 1:
        raise CompileSkip(f"lpm table {table.name!r} mixes action kinds")
    if entries:
        fold = _VALUE_FOLDS.get(next(iter(fns)))
        if fold is None:
            raise CompileSkip(f"lpm table {table.name!r} has no value fold")
        to_value = fold[0]
    if not entries:
        return [f"{var} = None"]
    lines: List[str] = [f"_lv{uid} = {value_expr}"]
    for j, (_length, mask, bucket) in enumerate(table._ordered):
        bvar = f"_L{uid}_{j}"
        folded_bucket = {}
        for k, call in bucket.items():
            value = to_value(call.params)
            if value is None:
                raise CompileSkip(f"lpm entry in {table.name!r} not foldable")
            folded_bucket[k] = value
        ns[bvar] = folded_bucket
        probe = f"{bvar}.get(_lv{uid} & {mask})"
        if j == 0:
            lines.append(f"{var} = {probe}")
        else:
            lines.append(f"if {var} is None:")
            lines.append(f"    {var} = {probe}")
    return lines


def _expand_directive(
    uid: int, line: str, spec: PipelineSpec, ns: Dict[str, object]
) -> List[str]:
    body = line.strip()[1:]  # past the leading '%'
    head, _, rest = body.partition(" ")
    rest = rest.strip()
    if head == "apply":
        tname, _, raw_keys = rest.partition(" ")
        table = spec.tables.get(tname)
        keys = _split_key(raw_keys)
        if table is None or not keys:
            raise CompileSkip(f"bad %apply directive: {line.strip()!r}")
        if isinstance(table, TernaryTable):
            return _expand_ternary(uid, table, keys, ns)
        if isinstance(table, ExactTable):
            return _expand_exact(uid, table, keys, ns)
        raise CompileSkip(f"%apply on unsupported table kind: {type(table).__name__}")
    if head == "lpm":
        tname, _, tail = rest.partition(" ")
        expr, arrow, var = tail.rpartition("->")
        table = spec.tables.get(tname)
        if table is None or not arrow or not isinstance(table, LpmTable):
            raise CompileSkip(f"bad %lpm directive: {line.strip()!r}")
        return _expand_lpm(uid, table, expr.strip(), var.strip(), ns)
    raise CompileSkip(f"unknown directive: {line.strip()!r}")


def _generate_walk(spec: PipelineSpec, stale: Callable) -> Callable:
    """Exec-generate the fused walk for ``spec`` against the tables'
    current entries, guarded by their current generations."""
    ns: Dict[str, object] = dict(spec.names)
    ns["_stale"] = stale
    guard_terms = []
    for i, (tname, table) in enumerate(sorted(spec.tables.items())):
        ns[f"_G{i}"] = table
        guard_terms.append(f"_G{i}.generation != {table.generation}")
    body: List[str] = []
    uid = 0
    for line in spec.source.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        indent = line[: len(line) - len(line.lstrip())]
        if stripped.startswith("%"):
            body += [indent + ln for ln in _expand_directive(uid, line, spec, ns)]
            uid += 1
        else:
            body.append(line)
    guard = " or ".join(guard_terms)
    lines = ["def _walk(ctx, pkt, meta):"]
    if guard:
        lines.append(f"    if {guard}:")
        lines.append("        return _stale(ctx, pkt, meta)")
    lines += ["    " + ln for ln in body] or ["    pass"]
    src = "\n".join(lines)
    exec(src, ns)  # noqa: S102 - the specializer's code generator
    fn = ns["_walk"]
    fn.__repro_source__ = src
    return fn


def make_walk(program, kind: EventType, cell: List) -> Optional[Callable]:
    """The compiled walk for ``kind`` (self-invalidating via ``cell``),
    or None when the program offers no compilable spec."""
    spec_fn = getattr(program, "pipeline_spec", None)
    if spec_fn is None:
        return None
    spec = spec_fn(kind)
    if spec is None:
        return None

    def _stale(ctx, pkt, meta):
        # A guarded generation moved: regenerate against the mutated
        # tables, or fall back to the interpreted handler if the new
        # contents stopped being foldable.  The swap through ``cell``
        # is what every compiled caller reads, so one trip rebinds all.
        new: Optional[Callable] = None
        fresh = spec_fn(kind)
        if fresh is not None:
            try:
                new = _generate_walk(fresh, _stale)
            except CompileSkip:
                new = None
        if new is None:
            new = program.handler_for(kind)
        cell[0] = new
        return new(ctx, pkt, meta)

    try:
        return _generate_walk(spec, _stale)
    except CompileSkip:
        return None


def compile_switch(switch) -> Optional[Dict[EventType, Callable]]:
    """Bind ``switch``'s packet-event runners with each compilable walk
    generated at once instead of after its warm-up.  Returns the
    ``kind → runner(pkt, meta)`` table (runners do no bus accounting),
    or None with no program."""
    if switch.program is None:
        return None
    return switch._bind_runners(compile_now=True)
