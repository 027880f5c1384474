"""Unit tests for the discrete-event kernel."""

import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.kernel import SimulationError, Simulator


def test_starts_at_time_zero():
    sim = Simulator()
    assert sim.now_ps == 0
    assert sim.pending_events == 0


def test_callbacks_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(300, order.append, "c")
    sim.call_at(100, order.append, "a")
    sim.call_at(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_runs_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcd":
        sim.call_at(50, order.append, label)
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_priority_breaks_time_ties():
    sim = Simulator()
    order = []
    sim.call_at(50, order.append, "low", priority=10)
    sim.call_at(50, order.append, "high", priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.call_at(123, lambda: seen.append(sim.now_ps))
    sim.call_at(456, lambda: seen.append(sim.now_ps))
    sim.run()
    assert seen == [123, 456]
    assert sim.now_ps == 456


def test_call_after_is_relative():
    sim = Simulator()
    seen = []
    sim.call_at(100, lambda: sim.call_after(50, lambda: seen.append(sim.now_ps)))
    sim.run()
    assert seen == [150]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    handle = sim.call_at(10, ran.append, "x")
    handle.cancel()
    sim.run()
    assert ran == []
    assert sim.events_executed == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_at(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_run_until_bound_stops_and_advances_clock():
    sim = Simulator()
    ran = []
    sim.call_at(100, ran.append, 1)
    sim.call_at(300, ran.append, 2)
    executed = sim.run(until_ps=200)
    assert executed == 1
    assert ran == [1]
    assert sim.now_ps == 200  # clock advanced to the bound
    sim.run()
    assert ran == [1, 2]


def test_run_until_includes_events_at_bound():
    sim = Simulator()
    ran = []
    sim.call_at(200, ran.append, 1)
    sim.run(until_ps=200)
    assert ran == [1]


def test_max_events_bound():
    sim = Simulator()
    ran = []
    for t in (10, 20, 30):
        sim.call_at(t, ran.append, t)
    assert sim.run(max_events=2) == 2
    assert ran == [10, 20]


def test_step_runs_one_event():
    sim = Simulator()
    ran = []
    sim.call_at(10, ran.append, 1)
    sim.call_at(20, ran.append, 2)
    assert sim.step() is True
    assert ran == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    counter = []

    def chain(n):
        counter.append(n)
        if n < 5:
            sim.call_after(10, chain, n + 1)

    sim.call_at(0, chain, 0)
    sim.run()
    assert counter == [0, 1, 2, 3, 4, 5]
    assert sim.now_ps == 50


def test_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.call_at(1, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    drop = sim.call_at(20, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1


def test_pending_counter_survives_mass_cancellation():
    """The live counter stays exact through tombstone compaction."""
    sim = Simulator()
    handles = [sim.call_at(10 + i, lambda: None) for i in range(100)]
    for handle in handles[:80]:
        handle.cancel()
    # Compaction has certainly triggered (80 > 20), yet the count and
    # the executed schedule are unaffected.
    assert sim.pending_events == 20
    assert len(sim._queue) <= 40
    assert sim.run() == 20
    assert sim.pending_events == 0


def test_compaction_preserves_order():
    sim = Simulator()
    order = []
    doomed = [sim.call_at(50, order.append, f"x{i}") for i in range(40)]
    survivors = ["a", "b", "c", "d"]
    for label in survivors:
        sim.call_at(50, order.append, label)
    for handle in doomed:
        handle.cancel()
    sim.run()
    assert order == survivors  # same-time survivors still run in schedule order


def _live_minimum(sim):
    times = [event.time_ps for event in sim._queue if not event.cancelled]
    return min(times) if times else None


def test_next_event_time_matches_brute_force_minimum():
    """The two-head read agrees with a full scan, tombstoned head or not.

    Both tiers get a tombstoned head: events scheduled from outside a
    run go to the bulk tier, and events a callback schedules go to the
    heap.  ``min(sim._queue)`` is the earliest queued entry, tombstones
    included, whichever tier holds it.
    """
    rng = random.Random(7)
    sim = Simulator()
    handles = [sim.call_at(rng.randrange(1_000), lambda: None) for _ in range(12)]
    assert sim.next_event_time_ps == _live_minimum(sim)
    by_time = sorted(handles, key=lambda event: (event.time_ps, event.seqno))
    by_time[0].cancel()  # the bulk tier's head, from outside a run
    assert min(sim._queue) is by_time[0]  # the head is now a tombstone
    assert sim.next_event_time_ps == _live_minimum(sim) == by_time[1].time_ps
    by_time[1].cancel()  # the next live event
    by_time[6].cancel()  # and one mid-tier
    assert sim.next_event_time_ps == _live_minimum(sim) == by_time[2].time_ps

    seen = []

    def schedule_then_cancel_the_heap_head():
        now = sim.now_ps
        children = [sim.call_at(now + d, lambda: None) for d in (3, 1, 2)]
        children[1].cancel()  # the heap's head, from inside a callback
        assert min(sim._queue) is children[1]
        seen.append(sim.next_event_time_ps)
        assert seen[-1] == _live_minimum(sim) == now + 2

    sim.call_at(by_time[2].time_ps, schedule_then_cancel_the_heap_head)
    while sim.pending_events:
        sim.step()
        assert sim.next_event_time_ps == _live_minimum(sim)
    assert seen == [by_time[2].time_ps + 2]
    assert sim.next_event_time_ps is None
    for handle in (sim.call_at(2_000, lambda: None), sim.call_at(3_000, lambda: None)):
        handle.cancel()
    assert sim.next_event_time_ps is None  # only tombstones left


def test_cancel_after_execution_does_not_corrupt_pending():
    sim = Simulator()
    handle = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    sim.run(max_events=1)
    handle.cancel()  # already ran; must not decrement anything
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_execution_observer_sees_every_callback():
    sim = Simulator()
    seen = []

    def observe(ev):
        seen.append(ev.time_ps)

    sim.add_execution_observer(observe)
    sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    cancelled = sim.call_at(15, lambda: None)
    cancelled.cancel()
    sim.run()
    assert seen == [10, 20]
    sim.remove_execution_observer(observe)
    sim.call_at(30, lambda: None)
    sim.run()
    assert seen == [10, 20]  # detached observers see nothing further


class _Payload:
    """Stands in for a packet riding an event as an argument."""


@pytest.mark.parametrize(
    "run_kwargs", [{}, {"until_ps": 100}], ids=["unbounded", "bounded"]
)
def test_executed_event_does_not_pin_its_args(run_kwargs):
    """A recycled event shell must drop its callback and args.

    The caller kept no handle, so the kernel parks the executed shell on
    its free-list; the payload has to die with the run, not when the
    shell happens to be reused.  (No gc.collect(): there is no cycle.)
    """
    sim = Simulator()
    payload = _Payload()
    probe = weakref.ref(payload)
    sim.call_at(10, lambda arg: None, payload)
    del payload
    assert probe() is not None  # the pending event is what keeps it alive
    sim.run(**run_kwargs)
    assert probe() is None


# ----------------------------------------------------------------------
# Order property: the two-tier kernel against one sorted list
# ----------------------------------------------------------------------


class _RefEvent:
    __slots__ = ("ref", "key", "callback", "args")

    def __init__(self, ref, key, callback, args):
        self.ref, self.key, self.callback, self.args = ref, key, callback, args

    def cancel(self):
        if self in self.ref.events:
            self.ref.events.remove(self)


class _RefSim:
    """The reference model: one list kept sorted by (time, priority, seqno),
    with the kernel's public run semantics."""

    def __init__(self):
        self.now_ps = 0
        self.seqno = 0
        self.events = []

    def call_at(self, time_ps, callback, *args, priority=0):
        assert time_ps >= self.now_ps
        event = _RefEvent(self, (time_ps, priority, self.seqno), callback, args)
        self.seqno += 1
        self.events.append(event)
        self.events.sort(key=lambda ev: ev.key)
        return event

    def call_after(self, delay_ps, callback, *args, priority=0):
        return self.call_at(self.now_ps + delay_ps, callback, *args, priority=priority)

    def run(self, until_ps=None, max_events=None):
        executed = 0
        while self.events and (max_events is None or executed < max_events):
            head = self.events[0]
            if until_ps is not None and head.key[0] > until_ps:
                break
            self.events.pop(0)
            self.now_ps = head.key[0]
            head.callback(*head.args)
            executed += 1
        if until_ps is not None and until_ps > self.now_ps:
            self.now_ps = until_ps
        return executed

    def run_until(self, bound_ps):
        if bound_ps == self.now_ps:
            return 0
        executed = self.run(until_ps=bound_ps - 1)
        self.now_ps = max(self.now_ps, bound_ps)
        return executed

    def step(self):
        return self.run(max_events=1) == 1

    @property
    def pending_events(self):
        return len(self.events)

    @property
    def next_event_time_ps(self):
        return self.events[0].key[0] if self.events else None


class _World:
    """Drives one simulator: labelled events whose callbacks log, schedule
    children and cancel, as the drawn ``actions`` say.  Picklable, so a
    fork or pickle round trip carries it with the kernel."""

    def __init__(self, sim, actions, picks=None):
        self.sim = sim
        self.actions = actions
        self.log = []
        self.handles = {}  # label -> handle, pending events only
        self.labels = 0
        self.choices = []  # labels picked by tier-head cancels, in order
        #: Another world's ``choices`` to replay instead of reading tiers.
        self.picks = picks

    def schedule(self, time_ps, priority, absolute):
        label = self.labels
        self.labels += 1
        if absolute:
            handle = self.sim.call_at(time_ps, self.fire, label, priority=priority)
        else:
            handle = self.sim.call_after(
                time_ps - self.sim.now_ps, self.fire, label, priority=priority
            )
        self.handles[label] = handle

    def fire(self, label):
        del self.handles[label]  # drop the handle: the shell may be recycled
        self.log.append((label, self.sim.now_ps))
        for action in self.actions.get(label, ()):
            if action[0] == "sched":
                _, delay, priority = action
                self.schedule(self.sim.now_ps + delay, priority, absolute=False)
            else:
                self.cancel(action[1])

    def cancel(self, which):
        if isinstance(which, int):
            pending = sorted(self.handles)
            label = pending[which % len(pending)] if pending else None
        else:
            label = self.tier_head(which)
        if label is not None:
            self.handles.pop(label).cancel()

    def tier_head(self, tier):
        """The label of the earliest live event in the heap or bulk tier,
        or the replayed pick (the reference has no tiers, and a restored
        kernel holds everything in its bulk tier)."""
        if self.picks is not None:
            label = self.picks[len(self.choices)]
        else:
            *_, heap, far = self.sim._peek()
            tier_events = heap if tier == "heap" else far
            live = [ev for ev in tier_events if not ev.cancelled]
            label = min(live).args[0] if live else None
        self.choices.append(label)
        return label

    def apply(self, op):
        """Run one top-level step; returns what the step itself returned."""
        kind, sim = op[0], self.sim
        now = sim.now_ps
        if kind == "load":
            _, order, entries, absolute = op
            if order == "asc":
                entries = sorted(entries)
            elif order == "desc":
                entries = sorted(entries, reverse=True)
            for offset, priority in entries:
                self.schedule(now + offset, priority, absolute)
            return None
        if kind == "cancel":
            self.cancel(op[1])
            return None
        if kind == "cancel_many":
            for label in sorted(self.handles)[: op[1]]:
                self.handles.pop(label).cancel()
            return None
        if kind == "run":
            return sim.run()
        if kind == "run_until_ps":
            return sim.run(until_ps=now + op[1])
        if kind == "run_until":
            return sim.run_until(now + op[1])
        if kind == "run_max":
            return sim.run(max_events=op[1])
        if kind == "run_both":
            return sim.run(until_ps=now + op[1], max_events=op[2])
        if kind == "step":
            return sim.step()
        if kind == "batch":  # back to back, with no read in between
            return [self.apply(inner) for inner in op[1]]
        raise AssertionError(op)

    def observed(self, returned):
        sim = self.sim
        return (
            returned,
            list(self.log),
            sim.now_ps,
            sim.pending_events,
            sim.next_event_time_ps,
        )


def _carry(world, how):
    if how == "fork":
        carried = world.sim.fork(state=world)[1]
    else:
        carried = pickle.loads(pickle.dumps(world, pickle.HIGHEST_PROTOCOL))
    carried.picks = world.choices
    return carried


_offsets = st.integers(0, 20)
_priorities = st.integers(-2, 2)
_loads = st.tuples(
    st.just("load"),
    st.sampled_from(["asc", "desc", "random"]),
    st.lists(st.tuples(_offsets, _priorities), min_size=1, max_size=40),
    st.booleans(),
)
_drains = st.one_of(
    st.tuples(st.just("run_until_ps"), _offsets),
    st.tuples(st.just("run_until"), _offsets),
    st.tuples(st.just("run_max"), st.integers(1, 12)),
    st.tuples(st.just("run_both"), _offsets, st.integers(1, 12)),
    st.tuples(st.just("step")),
)
_simple_steps = st.one_of(
    _loads,
    _drains,
    st.tuples(st.just("cancel"), st.sampled_from(["far", "heap"]) | st.integers(0, 99)),
    st.tuples(st.just("cancel_many"), st.integers(1, 40)),
)
# A batch is a load, then a drain, with no read in between: reading
# next_event_time_ps sorts the bulk tier, so only then does a drain
# meet it unsorted.
_batches = st.builds(
    lambda load, drain, rest: ("batch", [load, drain] + rest),
    _loads,
    _drains,
    st.lists(_simple_steps, max_size=2),
)
_steps = st.one_of(
    _simple_steps,
    _batches,
    st.tuples(st.just("carry"), st.sampled_from(["fork", "pickle"])),
)
# What an event's callback does when it runs: schedule a child (delay 0
# lands in the current picosecond, small delays before the bulk head)
# or cancel a tier's head or some pending event.
_actions = st.dictionaries(
    st.integers(0, 80),
    st.lists(
        st.tuples(
            st.just("sched"), st.sampled_from([0, 0, 1, 2, 5]) | _offsets, _priorities
        )
        | st.tuples(
            st.just("cancel"), st.sampled_from(["far", "heap"]) | st.integers(0, 99)
        ),
        max_size=3,
    ),
    max_size=30,
)

_COMPACTION = [("load", "asc", [(t, 0) for t in range(40)], True), ("cancel_many", 30)]
_TIE = [
    ("load", "asc", [(5, 0), (9, 0)], True),
    ("run_until_ps", 5),
    ("load", "random", [(0, 0), (4, 1), (4, -1)], False),
]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@example(ops=_COMPACTION, actions={0: [("sched", 0, 0), ("cancel", "far")]})
@example(ops=_TIE, actions={0: [("sched", 4, 0), ("sched", 0, -2)]})
@example(ops=[("load", "desc", [(1, 0), (2, 0)], True), ("carry", "fork")], actions={})
@given(ops=st.lists(_steps, min_size=4, max_size=25), actions=_actions)
def test_kernel_order_equals_one_sorted_list(ops, actions):
    """Executed order, clock, pending count and next-event time equal the
    reference model's after every step, and every forked or pickled
    continuation equals the uninterrupted one."""
    worlds = [_World(Simulator(), actions)]
    ref = _World(_RefSim(), actions, picks=worlds[0].choices)
    for op in ops + [("run",)]:
        if op[0] == "carry":
            if len(worlds) < 3:
                worlds.append(_carry(worlds[0], op[1]))
            continue
        returned = [world.apply(op) for world in worlds]
        expected = ref.observed(ref.apply(op))
        for world, value in zip(worlds, returned):
            assert world.observed(value) == expected, op
            assert world.choices == ref.choices
    assert worlds[0].sim.pending_events == 0
