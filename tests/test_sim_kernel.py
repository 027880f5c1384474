"""Unit tests for the discrete-event kernel."""

import random
import weakref

import pytest

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
    """The heap-head read agrees with a full scan, tombstoned head or not."""
    rng = random.Random(7)
    sim = Simulator()
    handles = [sim.call_at(rng.randrange(1_000), lambda: None) for _ in range(12)]
    assert sim.next_event_time_ps == _live_minimum(sim)
    by_time = sorted(handles, key=lambda event: (event.time_ps, event.seqno))
    by_time[0].cancel()
    assert sim._queue[0] is by_time[0]  # the head is now a tombstone
    assert sim.next_event_time_ps == _live_minimum(sim) == by_time[1].time_ps
    by_time[1].cancel()  # the next live event, deeper in the heap
    by_time[6].cancel()  # and one mid-heap
    assert sim.next_event_time_ps == _live_minimum(sim) == by_time[2].time_ps
    while sim.pending_events:
        sim.step()
        assert sim.next_event_time_ps == _live_minimum(sim)
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
