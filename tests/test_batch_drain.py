"""Same-timestamp pile-ups drain in the portable (time, priority, seqno) order.

The executed order is pinned to a golden trace, including events
scheduled *into* the timestamp currently draining and cancellations
that land between two same-time callbacks.
"""

from repro.sim.kernel import Simulator


def record(trace, sim, label):
    trace.append((label, sim.now_ps))


def scripted_run():
    """One deterministic scenario exercising same-timestamp pile-ups.

    Returns the executed trace as (label, time) pairs.
    """
    sim = Simulator()
    trace = []

    # A same-timestamp pile-up with mixed priorities; seqno breaks the
    # remaining ties (scheduling order).
    sim.call_at(100, record, trace, sim, "t100-p5-a", priority=5)
    sim.call_at(100, record, trace, sim, "t100-p0-a", priority=0)
    sim.call_at(100, record, trace, sim, "t100-p5-b", priority=5)
    sim.call_at(100, record, trace, sim, "t100-p2", priority=2)

    # A callback that schedules INTO its own timestamp: the new event
    # must land among the still-pending same-time events by
    # (priority, seqno).
    def spawn_same_time():
        record(trace, sim, "t200-spawner")
        sim.call_at(200, record, trace, sim, "t200-late-p0", priority=0)
        sim.call_at(200, record, trace, sim, "t200-late-p9", priority=9)
        sim.call_at(300, record, trace, sim, "t300-from-200")

    sim.call_at(200, spawn_same_time, priority=1)
    sim.call_at(200, record, trace, sim, "t200-p3", priority=3)

    # A cancellation landing mid-run: the first t=400 callback cancels
    # a later one in the same (time, priority) run.
    doomed = []

    def cancel_sibling():
        record(trace, sim, "t400-canceller")
        doomed[0].cancel()

    sim.call_at(400, cancel_sibling, priority=7)
    doomed.append(sim.call_at(400, record, trace, sim, "t400-doomed", priority=7))
    sim.call_at(400, record, trace, sim, "t400-survivor", priority=7)

    executed = sim.run()
    assert executed == len(trace)
    return trace


#: The portable order the kernel must produce.
EXPECTED = [
    ("t100-p0-a", 100),
    ("t100-p2", 100),
    ("t100-p5-a", 100),
    ("t100-p5-b", 100),
    ("t200-spawner", 200),
    ("t200-late-p0", 200),  # priority 0 sorts before the pending p3
    ("t200-p3", 200),
    ("t200-late-p9", 200),
    ("t300-from-200", 300),
    ("t400-canceller", 400),
    ("t400-survivor", 400),
]


def test_scripted_order_is_portable():
    assert scripted_run() == EXPECTED


def test_run_until_window_edge():
    """run_until(W) executes strictly-before-W, never the W run."""
    sim = Simulator()
    trace = []
    for priority in (4, 0, 2):
        sim.call_at(500, record, trace, sim, f"t500-p{priority}", priority=priority)
        sim.call_at(999, record, trace, sim, f"t999-p{priority}", priority=priority)
        sim.call_at(1000, record, trace, sim, f"t1000-p{priority}", priority=priority)

    sim.run_until(1000)
    assert sim.now_ps == 1000
    assert [label for label, _t in trace] == [
        "t500-p0", "t500-p2", "t500-p4",
        "t999-p0", "t999-p2", "t999-p4",
    ]

    # A boundary event delivered exactly on the window edge is legal and
    # joins the already-queued t=1000 run in (priority, seqno) order.
    sim.call_at(1000, record, trace, sim, "t1000-boundary-p1", priority=1)
    sim.run()
    assert [label for label, _t in trace[6:]] == [
        "t1000-p0", "t1000-boundary-p1", "t1000-p2", "t1000-p4",
    ]


def test_same_timestamp_counters():
    sim = Simulator()
    for t in (10, 10, 10, 20, 20, 30):
        sim.call_at(t, lambda: None)
    assert sim.pending_events == 6
    assert sim.run() == 6
    assert sim.pending_events == 0
    assert sim.events_executed == 6
    assert sim.now_ps == 30
