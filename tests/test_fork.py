"""``Simulator.fork``: in-memory snapshot isolation.

The satellite guarantees under test:

* a fork and its parent replay **byte-identical** execution traces when
  continued identically (fingerprint equality is what makes the forked
  chaos grid trustworthy),
* post-fork divergence is fully isolated — events injected into one
  copy never leak into the other, and neither do state mutations,
* a chaos scenario cut at any time and carried across by either
  route (bytes or fork) finishes exactly like the uninterrupted run,
* the bytes-level helpers (``dumps_checkpoint``/``loads_checkpoint``)
  round-trip the same format as the file-based API, so service-side
  preemption blobs and on-disk checkpoints are interchangeable.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.monitors import ReconvergenceMonitor
from repro.faults.scenarios import SCENARIOS, build_scenario
from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    dumps_checkpoint,
    load_checkpoint,
    loads_checkpoint,
)
from repro.sim.kernel import SimulationError, Simulator

from tests.test_checkpoint import (
    TICKER_TRACE_500_2000,
    TraceRecorder,
    Ticker,
    _build,
    trace_digest,
    two_frames,
)


def _finish_with_trace(sim: Simulator, until_ps: int) -> list:
    recorder = TraceRecorder()
    sim.add_execution_observer(recorder)
    sim.run(until_ps=until_ps)
    return recorder.records


def test_identical_continuations_are_byte_identical():
    sim, tickers = _build()
    sim.run(until_ps=500)
    sim2, tickers2 = sim.fork(state=tickers)

    trace = _finish_with_trace(sim, 2_000)
    trace2 = _finish_with_trace(sim2, 2_000)

    assert trace2 == trace
    assert trace_digest(trace) == TICKER_TRACE_500_2000
    assert sim2.now_ps == sim.now_ps
    assert sim2.events_executed == sim.events_executed
    for orig, forked in zip(tickers, tickers2):
        assert forked.fired == orig.fired
    # The strongest form: the full serialized ticker state matches.
    assert pickle.dumps([t.fired for t in tickers2]) == pickle.dumps(
        [t.fired for t in tickers]
    )


def test_divergent_continuations_are_isolated():
    sim, tickers = _build()
    sim.run(until_ps=500)
    sim2, tickers2 = sim.fork(state=tickers)

    # Perturb only the fork: one extra ticker and a mutated period.
    intruder = Ticker(613, priority=2, tag="intruder")
    intruder.start(sim2)
    tickers2[0].period_ps = 45

    sim.run(until_ps=2_000)
    sim2.run(until_ps=2_000)

    # A pristine reference confirms the parent was untouched.
    ref_sim, ref_tickers = _build()
    ref_sim.run(until_ps=2_000)
    for orig, ref in zip(tickers, ref_tickers):
        assert orig.fired == ref.fired
    # ...while the fork actually diverged.
    assert tickers2[0].fired != tickers[0].fired
    assert any(tag == "intruder" for _, tag in intruder.fired)
    assert not any(
        tag == "intruder" for t in tickers for _, tag in t.fired
    )


def test_fork_shares_no_mutable_structure():
    sim, tickers = _build()
    sim.run(until_ps=200)
    sim2, tickers2 = sim.fork(state=tickers)
    assert sim2 is not sim
    assert tickers2 is not tickers
    assert all(f is not o for f, o in zip(tickers2, tickers))
    assert all(f.fired is not o.fired for f, o in zip(tickers2, tickers))
    # Each forked ticker drives the forked kernel, not the parent.
    assert all(t.sim is sim2 for t in tickers2)
    assert all(t.sim is sim for t in tickers)


def test_fork_refused_while_running():
    sim = Simulator()
    failures = []

    def try_fork() -> None:
        try:
            sim.fork()
        except SimulationError as exc:
            failures.append(str(exc))

    sim.call_at(10, try_fork)
    sim.run()
    assert failures and "running" in failures[0]


def test_bytes_helpers_round_trip_and_match_file_format(tmp_path):
    sim, tickers = _build()
    sim.run(until_ps=300)
    blob = dumps_checkpoint(sim, state=tickers, label="blob")

    sim2, tickers2, header = loads_checkpoint(blob)
    assert header["format"] == CHECKPOINT_MAGIC
    assert header["label"] == "blob"
    assert header["now_ps"] == sim.now_ps
    assert sim2.events_executed == sim.events_executed

    # The blob *is* the file format: dump it to disk, load it back.
    path = tmp_path / "blob.ckpt"
    path.write_bytes(blob)
    sim3, _tickers3, header3 = load_checkpoint(str(path))
    assert header3 == header
    assert sim3.now_ps == sim2.now_ps

    # Identical continuations from bytes restore match the parent.
    trace = _finish_with_trace(sim, 1_500)
    trace2 = _finish_with_trace(sim2, 1_500)
    assert trace2 == trace
    for orig, restored in zip(tickers, tickers2):
        assert restored.fired == orig.fired


def test_loads_checkpoint_rejects_garbage():
    with pytest.raises(CheckpointError):
        loads_checkpoint(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="no Simulator"):
        loads_checkpoint(two_frames(pickle.dumps({"sim": "nope"})))


#: The chaos grid's switch arms (``repro.faults.chaos``).
ARMS = {
    "default": {},
    "cache-off": {"flow_cache": False},
    "fastpath-on": {"flow_cache": True, "fastpath": True},
}


def _monitored(app, seed, arm):
    """A chaos scenario and a log of its sink's arrival times."""
    scenario = build_scenario(app, seed, **ARMS[arm])
    return scenario, ReconvergenceMonitor(scenario.network.sim, scenario.sink)


def _finish(scenario, monitor) -> dict:
    """Run ``scenario`` to its end; the observables a restore must keep."""
    network = scenario.network
    network.run(until_ps=scenario.duration_ps)
    # Settle fused in-flight windows at the cutoff, as the chaos
    # harness does: a fused hop's counters land at delivery otherwise.
    for _name, switch in sorted(network.switches.items()):
        switch.fastpath_disrupt()
    return {
        "now_ps": network.sim.now_ps,
        "hosts": [
            (name, h.sent_packets, h.sent_bytes, h.received_packets,
             h.received_bytes, h.tx_drops)
            for name, h in sorted(network.hosts.items())
        ],
        "fingerprint": scenario.fingerprint(monitor.arrivals),
    }


@settings(max_examples=50, deadline=None)
@given(
    app=st.sampled_from(sorted(SCENARIOS)),
    seed=st.integers(1, 1_000),
    arm=st.sampled_from(sorted(ARMS)),
    cut_permille=st.integers(1, 999),
    via_fork=st.booleans(),
)
def test_mid_run_round_trip_matches_the_uninterrupted_run(
    app, seed, arm, cut_permille, via_fork
):
    straight, straight_monitor = _monitored(app, seed, arm)
    expected = _finish(straight, straight_monitor)
    scenario, monitor = _monitored(app, seed, arm)
    scenario.network.run(until_ps=scenario.duration_ps * cut_permille // 1_000)
    sim, state = scenario.network.sim, (scenario, monitor)
    if via_fork:
        _sim, (restored, monitor) = sim.fork(state=state)
    else:
        _sim, (restored, monitor), _header = loads_checkpoint(
            dumps_checkpoint(sim, state=state)
        )
    resumed = _finish(restored, monitor)
    if not straight.fastpath_totals()["fused"]:
        # A restored run starts with cold caches and fuses later, so
        # its kernel event count matches only where nothing fuses.
        expected["events"] = straight.network.sim.events_executed
        resumed["events"] = restored.network.sim.events_executed
    assert resumed == expected
