"""Tests for the pluggable observability layer (repro.obs)."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.arch.bus import EventBus
from repro.arch.events import Event, EventType
from repro.cli import main
from repro.experiments.psa_fig_exp import run_architecture
from repro.obs import (
    CallbackProfiler,
    DispatchLatencyHistogram,
    EventCounters,
    JsonlTraceSink,
    RecordingObserver,
    observing,
    read_events_trace,
)
from repro.sim.kernel import Simulator


def timer_event(t_ps=0, timer_id=1):
    return Event(kind=EventType.TIMER, time_ps=t_ps, meta={"timer_id": timer_id})


# ----------------------------------------------------------------------
# EventCounters
# ----------------------------------------------------------------------
def test_counters_aggregate_across_buses():
    sim = Simulator()
    counters = EventCounters()
    bus_a, bus_b = EventBus(sim, name="a"), EventBus(sim, name="b")
    bus_a.add_observer(counters)
    bus_b.add_observer(counters)
    bus_a.publish(timer_event())
    bus_b.publish(timer_event())
    bus_b.set_admission(lambda event: False)
    bus_b.publish(timer_event())
    assert counters.published[EventType.TIMER] == 3
    assert counters.suppressed[EventType.TIMER] == 1
    assert counters.nonzero_kinds() == [EventType.TIMER]
    assert counters.total_published() == 3


def test_counters_track_handled_and_dropped():
    sim = Simulator()
    counters = EventCounters()
    bus = EventBus(sim)
    bus.add_observer(counters)
    bus.set_dispatcher(lambda event: True)
    bus.dispatch(timer_event())
    bus.set_dispatcher(lambda event: False)
    bus.dispatch(timer_event())
    bus.drop(timer_event())
    snapshot = counters.as_dict()["timer_expiration"]
    assert snapshot == {
        "published": 0,
        "suppressed": 0,
        "handled": 1,
        "dropped": 1,
    }


# ----------------------------------------------------------------------
# DispatchLatencyHistogram
# ----------------------------------------------------------------------
def test_histogram_mean_and_max():
    histogram = DispatchLatencyHistogram()
    histogram.on_dispatch(None, timer_event(), 0, True)
    histogram.on_dispatch(None, timer_event(), 100, True)
    assert histogram.mean_ps(EventType.TIMER) == 50.0
    assert histogram.mean_ps() == 50.0
    assert histogram.max_ps[EventType.TIMER] == 100
    assert histogram.total_count() == 2
    assert histogram.observed_kinds() == [EventType.TIMER]


def test_histogram_percentiles_are_bucket_bounds():
    histogram = DispatchLatencyHistogram()
    for _ in range(99):
        histogram.on_dispatch(None, timer_event(), 0, True)
    histogram.on_dispatch(None, timer_event(), 1000, True)
    # Zero-latency dispatches land in bucket 0, whose upper bound is 0 ps.
    assert histogram.percentile_ps(50) == 0
    assert histogram.percentile_ps(99) == 0
    # 1000 ps has bit_length 10, so its bucket's upper bound is 2**10-1.
    assert histogram.percentile_ps(100) == 1023


def test_histogram_empty():
    histogram = DispatchLatencyHistogram()
    assert histogram.mean_ps() == 0.0
    assert histogram.percentile_ps(99) == 0
    assert histogram.summary_rows()[-1] == "(no dispatches observed)"


# ----------------------------------------------------------------------
# JsonlTraceSink
# ----------------------------------------------------------------------
def test_jsonl_sink_round_trip():
    sim = Simulator()
    stream = io.StringIO()
    sink = JsonlTraceSink(stream)
    bus = EventBus(sim, name="roundtrip")
    bus.add_observer(sink)
    event = timer_event(t_ps=0, timer_id=7)
    bus.publish(event, route=False)
    sim.call_at(500, bus.dispatch, event)
    sim.run()
    sink.close()
    stream.seek(0)
    records = read_events_trace(stream)
    assert [record["phase"] for record in records] == ["publish", "dispatch"]
    assert records[0]["admitted"] is True
    assert records[0]["bus"] == "roundtrip"
    assert records[0]["meta"] == {"timer_id": 7}
    assert records[1]["latency_ps"] == 500
    assert [record["seq"] for record in records] == [0, 1]


def test_jsonl_sink_can_exclude_dispatch():
    sim = Simulator()
    stream = io.StringIO()
    sink = JsonlTraceSink(stream, include_dispatch=False)
    bus = EventBus(sim)
    bus.add_observer(sink)
    event = timer_event()
    bus.publish(event, route=False)
    bus.delivered(event, handled=False)
    stream.seek(0)
    records = read_events_trace(stream)
    assert [record["phase"] for record in records] == ["publish"]


# ----------------------------------------------------------------------
# Determinism (satellite: same seed ⇒ identical trace)
# ----------------------------------------------------------------------
def _sume_trace(packets=40):
    recorder = RecordingObserver()
    with observing(recorder):
        run_architecture("sume", packets=packets)
    return recorder


def test_same_seed_produces_identical_event_trace():
    first = _sume_trace().normalized()
    second = _sume_trace().normalized()
    assert len(first) > 100
    assert first == second


def test_determinism_covers_same_timestamp_ties():
    """The trace must exercise (and stably order) same-timestamp events."""
    trace = _sume_trace().normalized()
    timestamps = [entry[3] for entry in trace]
    assert len(timestamps) != len(set(timestamps)), (
        "expected same-timestamp events; tie-breaking is not exercised"
    )


def test_recording_observer_clear():
    recorder = RecordingObserver()
    recorder.on_publish(EventBus(Simulator()), timer_event(), True)
    assert recorder.records
    recorder.clear()
    assert recorder.records == []


# ----------------------------------------------------------------------
# CallbackProfiler (kernel tap)
# ----------------------------------------------------------------------
def test_callback_profiler_counts_by_qualname():
    sim = Simulator()
    profiler = CallbackProfiler.attach(sim)
    hits = []
    def tick():
        hits.append(sim.now_ps)
    sim.call_at(10, tick)
    sim.call_at(20, tick)
    sim.run()
    assert profiler.total() == 2
    (name, count), = profiler.top(1)
    assert "tick" in name
    assert count == 2
    profiler.detach(sim)
    sim.call_at(30, tick)
    sim.run()
    assert profiler.total() == 2


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
def test_cli_events_stats(capsys):
    assert main(["events-stats", "--source", "catalog"]) == 0
    out = capsys.readouterr().out
    assert "EventBus counters (catalog)" in out
    assert "event type(s) observed" in out
    assert "timer_expiration" in out


def test_cli_events_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    assert main(["events-trace", "--source", "catalog",
                 "--out", str(out_path), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    records = read_events_trace(str(out_path))
    assert len(records) > 10
    assert all("phase" in record for record in records)
    # The printed preview is valid JSON.
    preview = [line for line in out.splitlines() if line.startswith("{")]
    assert len(preview) == 2
    for line in preview:
        json.loads(line)


# ----------------------------------------------------------------------
# Trace equality: the TM event record and a whole-run JSONL trace
# ----------------------------------------------------------------------
_TM_HOOKS = {
    EventType.ENQUEUE: "on_enqueue",
    EventType.DEQUEUE: "on_dequeue",
    EventType.BUFFER_OVERFLOW: "on_overflow",
    EventType.BUFFER_UNDERFLOW: "on_underflow",
    EventType.PACKET_TRANSMITTED: "on_transmit",
}


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
@pytest.mark.parametrize("kind", list(_TM_HOOKS), ids=lambda kind: kind.value)
def test_tm_event_record_layout(kind, observed):
    """A TM hook's record: user keys first, then ``pkt_len`` unless the
    user set it, then the TM's fields; identical with or without an
    observer on the bus."""
    from repro.arch.description import FULL_EVENT_SWITCH
    from repro.arch.sume import SumeEventSwitch
    from repro.packet.builder import make_udp_packet

    switch = SumeEventSwitch(Simulator(), description=FULL_EVENT_SWITCH)
    routed = []
    switch.bus.subscribe(routed.append, kinds=[kind])
    if observed:
        switch.bus.add_observer(RecordingObserver())
    pkt = make_udp_packet(1, 2, payload_len=100)
    length = pkt.total_len
    cases = [
        ({"flowID": 3, "pkt_len": 500}, [("flowID", 3), ("pkt_len", 500), ("port", 2)]),
        ({"flowID": 3}, [("flowID", 3), ("pkt_len", length), ("port", 2)]),
        (None, [("pkt_len", length), ("port", 2)]),
        ({"port": 9}, [("port", 2), ("pkt_len", length)]),
    ]
    tm_fields = [("queue_id", 1), ("qdepth_bytes", 700), ("buffer_bytes", 0)]
    hook = getattr(switch.tm.hooks, _TM_HOOKS[kind])
    for user_meta, head in cases:
        hook(pkt, 2, 1, 700, user_meta)
        record = routed[-1].to_record()
        assert list(record.pop("meta").items()) == head + tm_fields
        assert record == {"kind": kind.value, "t_ps": 0, "pkt": pkt.pkt_id}
    assert len(routed) == len(cases)
    assert switch.bus.fired[kind] == len(cases)
    assert cases[0][0] == {"flowID": 3, "pkt_len": 500}  # user meta untouched


#: SHA-256 of the JSONL trace of a 2 ms §2 microburst run on the SUME
#: pair, the sink attached to both buses from t=0, in a fresh process
#: (packet ids start at 0).
MICROBURST_TRACE_SHA256 = (
    "e2fa8d852f18abe633073609364319b86ff8ada1ef85042b88952e52390c5950"
)

_TRACE_SCRIPT = """
import hashlib, io
from repro.experiments.microburst_exp import prepare_event_driven
from repro.obs import JsonlTraceSink
from repro.sim.units import MILLISECONDS

stream = io.StringIO()
sink = JsonlTraceSink(stream)
setup = prepare_event_driven(duration_ps=2 * MILLISECONDS)
for switch in setup.network.switches.values():
    switch.bus.add_observer(sink)
setup.network.run(until_ps=setup.duration_ps)
print(sink.records_written, hashlib.sha256(stream.getvalue().encode()).hexdigest())
"""


def test_microburst_jsonl_trace_is_pinned():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    result = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    records, digest = result.stdout.split()
    assert int(records) == 11_442
    assert digest == MICROBURST_TRACE_SHA256
