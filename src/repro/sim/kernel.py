"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of scheduled callbacks keyed
by (time, priority, sequence-number).  The sequence number makes the
ordering of same-time, same-priority events deterministic: they run in
the order they were scheduled.  All components of the reproduction — the
PISA pipelines, traffic managers, timer units, links, and hosts — share
one simulator, so a whole multi-switch network advances on a single
totally-ordered virtual clock.

The queue is a binary heap of scheduled events.  Events are stored as
flat lists so heap sift compares run element-wise at C speed on the
(time, priority, seqno) prefix instead of calling a Python ``__lt__``.

Implementation note: the per-event cost of ``call_after`` plus one run
loop iteration bounds every experiment in the repo, so the hot paths are
built as closures over the mutable kernel state (clock, seqno, queue,
free-list).  Cell-variable access compiles to ``LOAD_DEREF``, which is
several times cheaper than an attribute load on ``self``; across the
~10 state touches per event this is worth roughly 15% of total event
throughput.  The :class:`Simulator` object keeps the public API and
exposes the same state through properties for tests and tooling.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional

#: Field indices of the :class:`ScheduledEvent` flat-list layout.
_TIME, _PRIO, _SEQ, _CB, _ARGS, _CANCELLED, _OWNER = range(7)

#: A virtual time no real event ever reaches (run-loop bound sentinel).
_NEVER_PS = 1 << 63


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class ScheduledEvent(list):
    """A callback scheduled at a simulated time.

    Holding a reference to the returned object lets the scheduler cancel
    it later; cancellation is O(1) (the queue entry is tombstoned and the
    owning simulator keeps a live count of pending tombstones).

    The event *is* its queue entry: a flat list
    ``[time_ps, priority, seqno, callback, args, cancelled, owner]``.
    Heap ordering therefore uses list's C-level lexicographic compare on
    the (time, priority, seqno) prefix — seqno is unique per simulator,
    so comparison never reaches the callback.  The named attributes
    below are the public API; the list layout is internal to the kernel,
    and instances are built from the full 7-field tuple (list's own
    constructor) so scheduling pays no Python-level ``__init__`` frame.
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # Named access (public API; hot paths index the list directly)
    # ------------------------------------------------------------------
    @property
    def time_ps(self) -> int:
        return self[_TIME]

    @property
    def priority(self) -> int:
        return self[_PRIO]

    @property
    def seqno(self) -> int:
        return self[_SEQ]

    @property
    def callback(self) -> Callable[..., None]:
        return self[_CB]

    @property
    def args(self) -> tuple:
        return self[_ARGS]

    @property
    def cancelled(self) -> bool:
        return self[_CANCELLED]

    @property
    def owner(self) -> Optional["Simulator"]:
        return self[_OWNER]

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        if self[_CANCELLED]:
            return
        self[_CANCELLED] = True
        owner = self[_OWNER]
        if owner is not None:
            owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self[_CB], "__qualname__", repr(self[_CB]))
        return (
            f"ScheduledEvent(t={self[_TIME]}ps, prio={self[_PRIO]}, cb={name})"
        )


def _build_heap_core(sim: "Simulator", observers: list, floor: int):
    """Build the kernel's hot-path closures.

    All mutable kernel state lives in this scope's cells.  The returned
    closures share those cells; the Simulator stores the closures in
    slots and mirrors the state through read-only properties.

    The literal indices in the loops are the ScheduledEvent layout:
    ``0=time  1=priority  2=seqno  3=callback  4=args  5=cancelled
    6=owner``.
    """
    now = 0
    seqno = 0
    executed_total = 0
    cancelled = 0
    queue: List[ScheduledEvent] = []
    # Free-list of recycled event shells.  The run loop returns an
    # executed event here only when its refcount proves the kernel holds
    # the sole reference (the caller dropped the handle), so a held
    # handle is never mutated behind the caller's back.  Reuse skips
    # both the subclass allocation and the GC-generation churn of 10^5s
    # of short-lived containers; the list never outgrows the peak number
    # of concurrently pending events.  Shells in the free-list invariantly
    # have cancelled=False (only executed, uncancelled events are
    # recycled and no outside handle exists that could cancel them),
    # owner=sim, and callback=args=None — a parked shell must not keep
    # the executed callback's arguments (the packet) alive — so reuse
    # rewrites just the five leading fields.
    free: List[ScheduledEvent] = []
    push = heappush
    pop_free = free.pop

    def call_at(
        time_ps: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        nonlocal seqno
        if time_ps < now:
            raise SimulationError(
                f"cannot schedule at t={time_ps}ps, now is t={now}ps"
            )
        s = seqno
        seqno = s + 1
        # EAFP on the free-list: at steady state it is never empty, so
        # the hit path pays one bound-method call and no truth test.
        try:
            event = pop_free()
            event[0] = time_ps
            event[1] = priority
            event[2] = s
            event[3] = callback
            event[4] = args
        except IndexError:
            event = ScheduledEvent(
                (time_ps, priority, s, callback, args, False, sim)
            )
        if queue:
            push(queue, event)
        else:
            queue.append(event)  # empty heap: skip the sift call
        return event

    def call_after(
        delay_ps: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        nonlocal seqno
        if delay_ps < 0:
            raise SimulationError(f"delay must be non-negative, got {delay_ps}")
        time_ps = now + delay_ps
        s = seqno
        seqno = s + 1
        try:
            event = pop_free()
            event[0] = time_ps
            event[1] = priority
            event[2] = s
            event[3] = callback
            event[4] = args
        except IndexError:
            event = ScheduledEvent(
                (time_ps, priority, s, callback, args, False, sim)
            )
        if queue:
            push(queue, event)
        else:
            queue.append(event)  # empty heap: skip the sift call
        return event

    def note_cancel() -> None:
        # A queued event was tombstoned; compact when they dominate.
        # Compaction filters *in place*: run loops hold a reference to
        # the queue list, so its identity must never change.  Rebuilding
        # over the surviving (time, priority, seqno) triples reproduces
        # the exact total order, so compaction never perturbs
        # deterministic event ordering.
        nonlocal cancelled
        cancelled += 1
        size = len(queue)
        if size >= floor and cancelled > size // 2:
            queue[:] = [ev for ev in queue if not ev[5]]
            heapify(queue)
            cancelled -= size - len(queue)

    def drain(bound: int, limit: int) -> int:
        nonlocal now, executed_total, cancelled
        q = queue
        pop = heappop
        refs = getrefcount
        recycle = free.append
        executed = 0
        # ``events_executed`` is flushed once per drain rather than per
        # event; only the post-run value is observable.
        try:
            if bound == _NEVER_PS and limit == _NEVER_PS:
                # Unbounded full drain: the overwhelmingly common call
                # and the one the event-throughput benchmark times, so
                # it skips the per-event bound/limit compares and ends
                # on heappop's own empty-queue IndexError instead of
                # paying a truth test per iteration (zero-cost try; the
                # except is scoped to the pop so callback exceptions
                # propagate untouched).
                while True:
                    try:
                        head = pop(q)
                    except IndexError:
                        return executed
                    if head[5]:
                        head[6] = None
                        cancelled -= 1
                        continue
                    head[6] = None  # late cancel() is now a no-op
                    now = head[0]
                    args = head[4]
                    if args:
                        head[3](*args)
                    else:
                        head[3]()
                    executed += 1
                    if observers:
                        for observer in observers:
                            observer(head)
                    # refcount 2 == the loop local plus getrefcount's
                    # own argument: nobody kept the handle, recycle it.
                    # A callback may have cancel()ed its own firing event
                    # (harmless post-execution), so scrub the flag: with
                    # no handles left the scrub is unobservable.
                    if refs(head) == 2:
                        head[3] = head[4] = None
                        head[5] = False
                        head[6] = sim
                        recycle(head)
            while q:
                head = pop(q)
                if head[5]:
                    head[6] = None
                    cancelled -= 1
                    continue
                if head[0] > bound or executed >= limit:
                    push(q, head)  # bounded run: leave the head queued
                    break
                head[6] = None
                now = head[0]
                head[3](*head[4])
                executed += 1
                if observers:
                    for observer in observers:
                        observer(head)
                if refs(head) == 2:
                    head[3] = head[4] = None
                    head[5] = False
                    head[6] = sim
                    recycle(head)
        finally:
            executed_total += executed
        return executed

    def peek():
        # (now, seqno, executed, pending, queued_raw, queue) snapshot for
        # the Simulator's properties and repr.
        return (
            now,
            seqno,
            executed_total,
            len(queue) - cancelled,
            len(queue),
            queue,
        )

    def get_now() -> int:
        return now

    def set_now(time_ps: int) -> None:
        nonlocal now
        now = time_ps

    def export_state():
        # Portable snapshot: (now, seqno, executed, live events sorted by
        # the total (time, priority, seqno) order).  Tombstones and the
        # free-list are deliberately dropped — they are performance
        # artifacts, not simulation state.
        events = [ev for ev in queue if not ev[5]]
        events.sort()
        return (now, seqno, executed_total, events)

    def import_state(time_ps, seq, executed, events) -> None:
        # Inverse of export_state, replacing all kernel state.  The
        # imported list is (time, priority, seqno)-sorted, which is a
        # valid binary heap as-is.
        nonlocal now, seqno, executed_total, cancelled
        for ev in queue:
            ev[6] = None
        queue[:] = list(events)
        for ev in queue:
            ev[6] = sim
        free.clear()
        now = time_ps
        seqno = seq
        executed_total = executed
        cancelled = 0

    return (
        call_at,
        call_after,
        note_cancel,
        drain,
        peek,
        get_now,
        set_now,
        export_state,
        import_state,
    )


class Simulator:
    """A deterministic discrete-event simulator with integer time.

    Usage::

        sim = Simulator()
        sim.call_at(1_000, lambda: print("one nanosecond"))
        sim.run()

    Callbacks may schedule further callbacks.  ``run`` drains the queue
    until it is empty or until an optional time/event bound is hit.

    ``call_at`` and ``call_after`` are per-instance closures over the
    kernel state (see the module docstring); their signatures are::

        call_at(time_ps, callback, *args, priority=0)   -> ScheduledEvent
        call_after(delay_ps, callback, *args, priority=0) -> ScheduledEvent

    Lower ``priority`` runs first among same-time events; scheduling in
    the past raises :class:`SimulationError`.
    """

    #: Never compact a queue smaller than this (the rebuild would cost
    #: more than the tombstones it reclaims).
    COMPACTION_FLOOR = 16

    __slots__ = (
        "call_at",
        "call_after",
        "_note_cancel",
        "_drain",
        "_peek",
        "_get_now",
        "_set_now",
        "_export_state",
        "_import_state",
        "_running",
        "_exec_observers",
    )

    def __init__(self) -> None:
        self._running = False
        self._exec_observers: List[Callable[[ScheduledEvent], None]] = []
        (
            self.call_at,
            self.call_after,
            self._note_cancel,
            self._drain,
            self._peek,
            self._get_now,
            self._set_now,
            self._export_state,
            self._import_state,
        ) = _build_heap_core(self, self._exec_observers, self.COMPACTION_FLOOR)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now_ps(self) -> int:
        """The current simulated time in picoseconds."""
        return self._get_now()

    @property
    def events_executed(self) -> int:
        """Number of callbacks the kernel has run so far."""
        return self._peek()[2]

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) callbacks still queued, in O(1)."""
        return self._peek()[3]

    @property
    def next_event_time_ps(self) -> Optional[int]:
        """Timestamp of the earliest live queued event, or None when idle.

        A cold-path introspection helper (O(pending) — it walks a queue
        snapshot filtering tombstones); fault-injection monitors use it
        to decide whether a scenario has quiesced, the hot loop never
        calls it.
        """
        times = [ev[_TIME] for ev in self._peek()[5] if not ev[_CANCELLED]]
        return min(times) if times else None

    # Internal state views kept for tests and debugging tools.
    @property
    def _now_ps(self) -> int:
        return self._get_now()

    @_now_ps.setter
    def _now_ps(self, time_ps: int) -> None:
        self._set_now(time_ps)

    @property
    def _queue(self) -> List[ScheduledEvent]:
        """Raw queued-event view (the live heap list)."""
        return self._peek()[5]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_execution_observer(self, fn: Callable[[ScheduledEvent], None]) -> None:
        """Call ``fn(scheduled_event)`` after every executed callback.

        The hook is the kernel-level tap the observability layer builds
        on (e.g. :class:`repro.obs.kernel.CallbackProfiler`); with no
        observers registered the run loop pays a single truthiness
        check per event.
        """
        self._exec_observers.append(fn)

    def remove_execution_observer(self, fn: Callable[[ScheduledEvent], None]) -> None:
        """Detach a previously added execution observer."""
        self._exec_observers.remove(fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until_ps: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``until_ps`` passes, or ``max_events``.

        Returns the number of callbacks executed by this call.  When
        ``until_ps`` is given, the clock is advanced to exactly
        ``until_ps`` on return even if the queue drained earlier, so
        repeated bounded runs observe monotonically advancing time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        bound = _NEVER_PS if until_ps is None else until_ps
        limit = _NEVER_PS if max_events is None else max_events
        try:
            executed = self._drain(bound, limit)
        finally:
            self._running = False
        if until_ps is not None and until_ps > self._get_now():
            self._set_now(until_ps)
        return executed

    def step(self) -> bool:
        """Execute the single next pending callback; False if queue empty."""
        return self.run(max_events=1) == 1

    def run_until(self, bound_ps: int) -> int:
        """Execute every event strictly before ``bound_ps``; land on it.

        The bounded-window primitive of the conservative-parallel shard
        engine (:mod:`repro.sim.shard`): after ``run_until(W)`` every
        callback with ``time_ps < W`` has executed, no callback at
        ``time_ps >= W`` has, and ``now_ps == W`` — so a later
        ``call_at(W, ...)`` (a boundary packet delivered exactly on the
        window edge) is still legal.  Contrast :meth:`run`, whose
        ``until_ps`` bound is inclusive.  Returns the number of
        callbacks executed.
        """
        now = self._get_now()
        if bound_ps < now:
            raise SimulationError(
                f"cannot run until t={bound_ps}ps, now is t={now}ps"
            )
        if bound_ps == now:
            return 0
        executed = self.run(until_ps=bound_ps - 1)
        if self._get_now() < bound_ps:
            self._set_now(bound_ps)
        return executed

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: export the portable kernel state.

        Execution observers are *not* captured (they are process-local
        instrumentation, often closures); re-attach after restoring.
        Pickling a running simulator is refused — a checkpoint taken
        mid-callback could not be resumed faithfully because the rest of
        the callback's effects would be missing.
        """
        if self._running:
            raise SimulationError("cannot pickle a running simulator")
        now, seqno, executed, events = self._export_state()
        return {
            "now_ps": now,
            "seqno": seqno,
            "events_executed": executed,
            "events": events,
        }

    def __setstate__(self, state: dict) -> None:
        # Format-1 checkpoints written while the queue implementation
        # was selectable carry extra keys naming it; the event list is
        # the portable sorted order whichever one wrote it, so they are
        # ignored.
        self.__init__()
        self._import_state(
            state["now_ps"],
            state["seqno"],
            state["events_executed"],
            state["events"],
        )

    def checkpoint(self, path: str, state: Any = None, label: str = "") -> dict:
        """Write a whole-simulator checkpoint to ``path``.

        ``state`` is an arbitrary picklable object stored alongside the
        simulator (an experiment's topology/handles); :meth:`restore`
        returns it.  See :mod:`repro.sim.checkpoint` for the format.
        Returns the checkpoint header (a JSON-able dict).
        """
        from repro.sim.checkpoint import save_checkpoint

        return save_checkpoint(path, self, state=state, label=label)

    @classmethod
    def restore(cls, path: str) -> tuple:
        """Load a checkpoint written by :meth:`checkpoint`.

        Returns ``(simulator, state)``.
        """
        from repro.sim.checkpoint import load_checkpoint

        sim, state, _header = load_checkpoint(path)
        return sim, state

    def fork(self, state: Any = None) -> tuple:
        """Snapshot this simulator into a fresh, independent instance.

        Checkpoint-to-memory plus restore: the returned
        ``(simulator, state)`` pair is a deep copy of this kernel and the
        experiment object graph handed in as ``state``, sharing no
        mutable structure with the original.  Both copies carry the same
        clock, seqno counter, and pending-event queue, so identical
        continuations replay the identical total order — and divergent
        continuations (say, a different fault plan injected into each
        fork) cannot disturb each other.  Like pickling, forking is
        refused while the simulator is running.
        """
        from repro.sim.checkpoint import dumps_checkpoint, loads_checkpoint

        blob = dumps_checkpoint(self, state=state, label="fork")
        sim, new_state, _header = loads_checkpoint(blob)
        return sim, new_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        now, _, executed, pending, _, _ = self._peek()
        return f"Simulator(now={now}ps, pending={pending}, executed={executed})"
