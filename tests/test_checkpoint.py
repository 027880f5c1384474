"""Checkpoint/restore: determinism across processes and format history.

Satellite guarantees under test:

* a restored kernel replays a byte-identical ``(time, priority, seqno)``
  execution trace, pinned to a golden digest,
* format-1 state written by the removed wheel queue / batched drain
  restores with the identical continuation, and a payload naming a
  removed store class fails as :class:`CheckpointError`,
* a SUME empty carrier in flight in the shape older builds scheduled
  (a Packet through ``_pipeline_exit``) resumes to the same result,
* a microburst run pickled by builds without the load-time handler and
  route tables (raw handler dict, ``_route_event`` subscription, cache
  attached under a shared register) resumes to the uninterrupted result,
* a microburst run checkpointed mid-simulation and resumed in a
  **fresh process** reaches the same final extern state, detections,
  and event counts as the uninterrupted run.
"""

import copyreg
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    dumps_checkpoint,
    inspect_checkpoint,
    load_checkpoint,
    loads_checkpoint,
    save_checkpoint,
)
from repro.sim.kernel import SimulationError, Simulator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


class Ticker:
    """A self-rescheduling callback that pickles inside checkpoints."""

    def __init__(self, period_ps: int, priority: int, tag: str) -> None:
        self.period_ps = period_ps
        self.priority = priority
        self.tag = tag
        self.fired = []
        self.sim = None

    def start(self, sim: Simulator) -> None:
        self.sim = sim
        sim.call_at(self.period_ps, self, priority=self.priority)

    def __call__(self) -> None:
        self.fired.append((self.sim.now_ps, self.tag))
        self.sim.call_after(self.period_ps, self, priority=self.priority)


class TraceRecorder:
    """Execution observer recording the exact (time, priority, seqno) order."""

    def __init__(self) -> None:
        self.records = []

    def __call__(self, event) -> None:
        self.records.append((event[0], event[1], event[2]))


def trace_digest(trace) -> str:
    """SHA-256 over a trace of plain tuples (ints/strings repr stably)."""
    return hashlib.sha256(repr(trace).encode()).hexdigest()


#: ``_build()`` run to 500 ps, then traced to 2,000 ps: 1,621 executed
#: (time, priority, seqno) records.  Recorded from the heap kernel at
#: the commit that removed the wheel queue, which produced the same.
TICKER_TRACE_500_2000 = (
    "3f275fb0d1988b9386a57de6895f84d91b28efa4e230afed5e7f77e91b2e0b7e"
)


def _build():
    sim = Simulator()
    # Colliding times and priorities so the total order is non-trivial.
    tickers = [
        Ticker(30, priority=0, tag="a"),
        Ticker(30, priority=-1, tag="urgent"),
        Ticker(70, priority=0, tag="b"),
        Ticker(1, priority=5, tag="background"),
    ]
    for ticker in tickers:
        ticker.start(sim)
    return sim, tickers


def test_restored_trace_matches_original_and_golden(tmp_path):
    path = str(tmp_path / "kernel.ckpt")
    sim, tickers = _build()
    sim.run(until_ps=500)
    save_checkpoint(path, sim, state=tickers)

    # Finish the original with the trace recorder attached.
    recorder = TraceRecorder()
    sim.add_execution_observer(recorder)
    sim.run(until_ps=2_000)

    # Restore and finish that copy.
    sim2, tickers2, _header = load_checkpoint(path)
    recorder2 = TraceRecorder()
    sim2.add_execution_observer(recorder2)
    sim2.run(until_ps=2_000)

    assert recorder2.records == recorder.records  # byte-identical total order
    assert len(recorder.records) == 1_621
    assert trace_digest(recorder.records) == TICKER_TRACE_500_2000
    assert sim2.now_ps == sim.now_ps
    assert sim2.events_executed == sim.events_executed
    for orig, rest in zip(tickers, tickers2):
        assert rest.fired == orig.fired
        assert rest.tag == orig.tag


def test_restore_matches_uninterrupted_run(tmp_path):
    path = str(tmp_path / "kernel.ckpt")
    sim, tickers = _build()
    sim.run(until_ps=333)
    save_checkpoint(path, sim, state=tickers)
    _sim2, tickers2, _header = load_checkpoint(path)
    for t in tickers2:
        t.sim.run(until_ps=1_000)
        break

    # A never-interrupted reference run over the same horizon.
    ref_sim, ref_tickers = _build()
    ref_sim.run(until_ps=1_000)
    for restored, ref in zip(tickers2, ref_tickers):
        assert restored.fired == ref.fired


def test_header_contents_and_inspect(tmp_path):
    path = str(tmp_path / "kernel.ckpt")
    sim, tickers = _build()
    sim.run(until_ps=100)
    written = save_checkpoint(path, sim, state=tickers, label="probe")
    header = inspect_checkpoint(path)
    assert header == written
    assert header["format"] == CHECKPOINT_MAGIC
    assert header["version"] == CHECKPOINT_VERSION
    assert header["label"] == "probe"
    assert "scheduler" not in header  # nothing left to select
    assert header["now_ps"] == sim.now_ps
    assert header["events_executed"] == sim.events_executed
    assert header["pending_events"] == sim.pending_events


def test_rejects_foreign_and_future_files(tmp_path):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError):
        inspect_checkpoint(str(garbage))

    wrong_magic = tmp_path / "magic.ckpt"
    with open(wrong_magic, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(CheckpointError, match="bad magic"):
        inspect_checkpoint(str(wrong_magic))

    future = tmp_path / "future.ckpt"
    with open(future, "wb") as fh:
        pickle.dump(
            {"format": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION + 1}, fh
        )
    with pytest.raises(CheckpointError, match="newer"):
        inspect_checkpoint(str(future))


def test_cannot_pickle_running_simulator():
    sim = Simulator()
    failures = []

    def try_pickle() -> None:
        try:
            pickle.dumps(sim)
        except SimulationError as exc:
            failures.append(str(exc))

    sim.call_at(10, try_pickle)
    sim.run()
    assert failures and "running" in failures[0]


def _reduce_as_the_wheel_kernel_did(sim: Simulator):
    """``Simulator`` pickle state with the two keys old kernels added."""
    state = dict(sim.__getstate__(), scheduler="wheel", batch_drain=True)
    return copyreg.__newobj__, (Simulator,), state


def test_state_written_by_removed_queue_variants_restores_identically():
    """Format version 1 outlives the wheel queue and the batched drain.

    Their ``__getstate__`` carried two extra keys naming the variant;
    the event list was already the portable sorted order, so such a
    state must restore onto the one remaining kernel and continue
    exactly like the original.
    """
    sim, tickers = _build()
    sim.run(until_ps=500)
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = {Simulator: _reduce_as_the_wheel_kernel_did}
    pickler.dump({"sim": sim, "state": tickers})
    assert b"wheel" in buffer.getvalue()

    restored = pickle.loads(buffer.getvalue())["sim"]
    assert type(restored) is Simulator
    assert restored.now_ps == sim.now_ps
    assert restored.events_executed == sim.events_executed
    assert restored.pending_events == sim.pending_events

    recorder = TraceRecorder()
    restored.add_execution_observer(recorder)
    restored.run(until_ps=2_000)
    assert trace_digest(recorder.records) == TICKER_TRACE_500_2000


def _blob_naming(name: str) -> bytes:
    """A two-frame checkpoint whose payload references ``repro.state.store.name``."""
    header = pickle.dumps(
        {"format": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION}, protocol=4
    )
    # GLOBAL opcode by hand: the class is gone, so it cannot be pickled
    # by reference the normal way.
    payload = (
        b"\x80\x04}(\x8c\x03sim\x8c\x04nope\x8c\x05state"
        + b"crepro.state.store\n" + name.encode() + b"\n"
        + b"u."
    )
    return header + payload


@pytest.mark.parametrize("name", ["DictStore", "ShadowStore", "_rebuild_dict"])
def test_payload_naming_a_removed_store_class_is_a_checkpoint_error(tmp_path, name):
    blob = _blob_naming(name)
    with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
        loads_checkpoint(blob)
    path = tmp_path / "old.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
        load_checkpoint(str(path))


# ----------------------------------------------------------------------
# Fresh-process microburst resume (the ISSUE's acceptance demo)
# ----------------------------------------------------------------------
_PHASE1 = """
import json, sys
from repro.experiments.microburst_exp import prepare_event_driven
from repro.sim.checkpoint import save_checkpoint
from repro.sim.units import MILLISECONDS

setup = prepare_event_driven(duration_ps=6 * MILLISECONDS)
setup.network.run(until_ps=3 * MILLISECONDS)
header = save_checkpoint(sys.argv[1], setup.network.sim, state=setup)
print(json.dumps({"now_ps": header["now_ps"]}))
"""

_PHASE2 = """
import json, sys
from repro.sim.checkpoint import load_checkpoint
from repro.experiments.microburst_exp import finish_event_driven

sim, setup, header = load_checkpoint(sys.argv[1])
result = finish_event_driven(setup)
print(json.dumps({
    "now_ps": setup.network.sim.now_ps,
    "events_executed": setup.network.sim.events_executed,
    "detections": result.detections_total,
    "caught": result.culprit_detected,
    "latency_ps": result.detection_latency_ps,
    "bursts": result.bursts_sent,
    "state_sum": sum(setup.detector.flow_buf_size.snapshot()),
    "state": setup.detector.flow_buf_size.snapshot(),
}))
"""

_UNINTERRUPTED = """
import json
from repro.experiments.microburst_exp import finish_event_driven, prepare_event_driven
from repro.sim.units import MILLISECONDS

setup = prepare_event_driven(duration_ps=6 * MILLISECONDS)
result = finish_event_driven(setup)
print(json.dumps({
    "now_ps": setup.network.sim.now_ps,
    "events_executed": setup.network.sim.events_executed,
    "detections": result.detections_total,
    "caught": result.culprit_detected,
    "latency_ps": result.detection_latency_ps,
    "bursts": result.bursts_sent,
    "state_sum": sum(setup.detector.flow_buf_size.snapshot()),
    "state": setup.detector.flow_buf_size.snapshot(),
}))
"""


def _run_snippet(code: str, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_microburst_resumes_identically_in_fresh_process(tmp_path):
    ckpt = str(tmp_path / "mb.ckpt")
    _run_snippet(_PHASE1, [ckpt])
    resumed = _run_snippet(_PHASE2, [ckpt])
    straight = _run_snippet(_UNINTERRUPTED, [])
    assert resumed == straight


# ----------------------------------------------------------------------
# A SUME empty carrier in flight, as written before carriers stopped
# being Packets
# ----------------------------------------------------------------------
def _sume_with_carrier_in_flight(legacy: bool):
    """A SUME switch with one empty carrier between entry and exit.

    ``legacy=True`` schedules the carrier the way older builds did — a
    64B ``EVENT_METADATA`` Packet through ``_pipeline_exit(pkt, None,
    events)`` — and drops the pipeline's cached latency, as pickles from
    before that cache lack it.
    """
    from repro.apps.microburst import MicroburstDetector
    from repro.arch.events import Event, EventType
    from repro.arch.sume import SumeEventSwitch
    from repro.packet.headers import Ethernet, EtherType
    from repro.packet.packet import Packet

    sim = Simulator()
    switch = SumeEventSwitch(sim)
    switch.load_program(MicroburstDetector(num_regs=16))
    events = [
        Event(EventType.ENQUEUE, 0, None, {"flowID": 3, "pkt_len": 500}),
        Event(EventType.DEQUEUE, 0, None, {"flowID": 3, "pkt_len": 200}),
    ]
    delay = switch.pipeline.latency_ps
    if legacy:
        eth = Ethernet(src=0, dst=0, ethertype=int(EtherType.EVENT_METADATA))
        carrier = Packet(headers=[eth], payload_len=50)
        carrier.meta["event_carrier"] = 1
        sim.call_after(delay, switch._pipeline_exit, carrier, None, events)
        del switch.pipeline.__dict__["latency_ps"]
    else:
        sim.call_after(delay, switch._carrier_exit, events)
    return sim, switch


def test_legacy_packet_carrier_in_flight_resumes_identically():
    sim, switch = _sume_with_carrier_in_flight(legacy=True)
    restored_sim, restored, _header = loads_checkpoint(
        dumps_checkpoint(sim, state=switch)
    )
    restored_sim.run()
    reference_sim, reference = _sume_with_carrier_in_flight(legacy=False)
    reference_sim.run()

    def outcome(sim, switch):
        return (
            sim.now_ps,
            switch.program.flow_buf_size.peek(3),
            switch.pipeline.packets_processed,
            dict(switch.bus.handled),
        )

    assert outcome(restored_sim, restored) == outcome(reference_sim, reference)
    assert restored.program.flow_buf_size.peek(3) == 300
    assert restored.pipeline.latency_ps == reference.pipeline.latency_ps


# ----------------------------------------------------------------------
# A microburst run as pickled before the handler and route tables were
# bound at load and the flow cache was parked under shared registers
# ----------------------------------------------------------------------
def _reduce_to_raw_dict(obj):
    """Pickle ``obj`` as its raw ``__dict__``, as builds without the
    derived tables did (no ``__getstate__`` dropping them).  A switch
    carries those builds' pending compile of the generated dispatch in
    place of packet-event runners."""
    state = dict(obj.__dict__)
    if "_runners" in state:
        del state["_runners"]
        state.update(_compiled=None, _compile_countdown=5)
    return copyreg.__newobj__, (type(obj),), state


def _microburst_outcome(setup, result):
    switches = setup.network.switches
    return {
        "result": result,
        "now_ps": setup.network.sim.now_ps,
        "events": setup.network.sim.events_executed,
        "state": setup.detector.flow_buf_size.snapshot(),
        "accesses": {
            name: dict(sw.program.flow_buf_size.accesses_by_thread)
            for name, sw in switches.items()
        },
        "merger": {name: sw.merger.stats for name, sw in switches.items()},
        "handled": {name: dict(sw.bus.handled) for name, sw in switches.items()},
    }


def test_checkpoint_without_bound_tables_resumes_identically():
    from repro.arch.bus import EventBus
    from repro.arch.sume import SumeEventSwitch
    from repro.experiments.microburst_exp import (
        finish_event_driven,
        prepare_event_driven,
    )
    from repro.pisa.flowcache import FlowCache
    from repro.sim.units import MILLISECONDS

    setup = prepare_event_driven(duration_ps=6 * MILLISECONDS)
    setup.network.run(until_ps=3 * MILLISECONDS)
    # Rewind every switch to the older shape: the program's raw handler
    # dict, an attached flow cache, and a bus routing through the
    # switch's _route_event with no route table.
    for switch in setup.network.switches.values():
        program = switch.program
        switch._event_handlers = program._handlers
        cache = switch.__dict__.pop("_parked_flow_cache")
        if cache is None:
            cache = FlowCache(setup.network.sim, name=switch.name)
        cache.attach(program)
        switch.flow_cache = cache
        bus = switch.bus
        del bus._routes
        bus._wildcard[:] = [switch._route_event]
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = {
        SumeEventSwitch: _reduce_to_raw_dict,
        EventBus: _reduce_to_raw_dict,
    }
    pickler.dump({"sim": setup.network.sim, "state": setup})
    header = pickle.dumps(
        {"format": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION}, protocol=4
    )
    _sim, restored, _header = loads_checkpoint(header + buffer.getvalue())

    for switch in restored.network.switches.values():
        assert switch.flow_cache is None
        assert not switch._parked_flow_cache.attached
        bound = switch._event_handlers.values()
        assert all(isinstance(entry, tuple) for entry in bound)
        assert switch.bus._routes
    resumed = _microburst_outcome(restored, finish_event_driven(restored))
    straight_setup = prepare_event_driven(duration_ps=6 * MILLISECONDS)
    straight = _microburst_outcome(straight_setup, finish_event_driven(straight_setup))
    assert resumed == straight
    assert resumed["result"].detections_total > 0


# ----------------------------------------------------------------------
# An L3 chain as pickled by builds with the exec-generated dispatch
# ----------------------------------------------------------------------
def _reduce_as_the_generated_dispatch_did(switch):
    """Switch pickle state with a compile pending part-way through the
    switch-wide warm-up, and no runner table."""
    state = dict(switch.__getstate__(), _compiled=None, _compile_countdown=7)
    return copyreg.__newobj__, (type(switch),), state


def _l3_chain(flow_cache=False, fastpath=None):
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    h0_ip, h1_ip = 0x0A00_0001, 0x0A00_0002
    network = build_linear(
        make_baseline_switch(flow_cache=flow_cache, compile=True, fastpath=fastpath),
        switch_count=3,
    )
    for name in sorted(network.switches):
        program = L3Router()
        program.install_host_routes({h0_ip: 0, h1_ip: 1})
        network.switches[name].load_program(program)
    for i in range(48):
        network.sim.call_at(
            1_000 + i * 200_000,
            network.hosts["h0"].send,
            make_udp_packet(h0_ip + i % 3, h1_ip, payload_len=200),
        )
    return network


def _l3_outcome(network):
    switches = network.switches.values()
    return {
        "now_ps": network.sim.now_ps,
        "events": network.sim.events_executed,
        "received": network.hosts["h1"].received_packets,
        "handled": [dict(sw.bus.handled) for sw in switches],
        "tables": [
            (table.hit_count, table.miss_count)
            for sw in switches
            for table in (sw.program.acl, sw.program.routes, sw.program.nexthops)
        ],
        "next_hops": [list(sw.program.next_hop_stats()) for sw in switches],
    }


def test_checkpoint_with_pending_generated_dispatch_resumes_identically():
    from repro.arch.baseline import BaselinePsaSwitch

    network = _l3_chain()
    network.run(until_ps=3_000_000)  # a few packets in: inside the warm-up
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = {BaselinePsaSwitch: _reduce_as_the_generated_dispatch_did}
    pickler.dump({"sim": network.sim, "state": network})
    assert b"_compile_countdown" in buffer.getvalue()
    header = pickle.dumps(
        {"format": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION}, protocol=4
    )
    _sim, restored, _header = loads_checkpoint(header + buffer.getvalue())
    for switch in restored.switches.values():
        assert "_compiled" not in vars(switch)
        assert "_compile_countdown" not in vars(switch)
        assert switch._runners is None  # bound on the first dispatch
    restored.run()
    straight = _l3_chain()
    straight.run()
    assert _l3_outcome(restored) == _l3_outcome(straight)
    assert _l3_outcome(restored)["received"] == 48


# ----------------------------------------------------------------------
# A pending ingress walk that carries its flow key, and one without
# ----------------------------------------------------------------------
def _checkpoint_mid_ingress_walk(strip_keys):
    """Run a cached, fastpath-enabled L3 chain until packets sit in an
    ingress pipe with the flow keys their fuse attempts built, then
    checkpoint it, with the keys or (as builds that never handed keys
    over wrote it) without, and run the restored copy to the end."""
    from repro.arch.baseline import BaselinePsaSwitch

    network = _l3_chain(flow_cache=True, fastpath=True)
    sim = network.sim
    until = 0
    while True:
        until += 10_000
        network.run(until_ps=until)
        pending = [
            event
            for event in sim._queue
            if getattr(event.callback, "__func__", None)
            is BaselinePsaSwitch._ingress_done
        ]
        if pending and all(event.args[2] is not None for event in pending):
            break
    if strip_keys:
        for event in pending:
            event[4] = event.args[:2]  # the older (pkt, port) shape
    blob = dumps_checkpoint(sim, state=network)
    _sim, restored, _header = loads_checkpoint(blob)
    for switch in restored.switches.values():
        assert switch._ingress_key is None
    restored.run()
    return restored


def test_checkpoint_with_pending_keyed_ingress_walk_resumes_identically():
    keyed = _checkpoint_mid_ingress_walk(strip_keys=False)
    keyless = _checkpoint_mid_ingress_walk(strip_keys=True)
    straight = _l3_chain(flow_cache=True, fastpath=True)
    straight.run()
    assert _l3_outcome(keyed) == _l3_outcome(keyless) == _l3_outcome(straight)
    assert _l3_outcome(keyed)["received"] == 48
    assert CHECKPOINT_VERSION == 1


# ----------------------------------------------------------------------
# A traffic manager pickled before ports kept their own backlog count
# ----------------------------------------------------------------------
class TmRecorder:
    """Picklable TM hooks and egress callback logging every transition."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.log = []

    def hook(self, kind, pkt, port, queue_id, depth_bytes, user_meta):
        self.log.append(
            (kind, self.sim.now_ps, pkt.total_len, port, queue_id, depth_bytes)
        )

    def egress(self, pkt, port):
        self.log.append(("egress", self.sim.now_ps, pkt.total_len, port))


def _queued_tm():
    """A TM with packets queued behind a disabled port 0 and behind the
    packet serializing on port 1."""
    import functools

    from repro.packet.builder import make_udp_packet
    from repro.tm.traffic_manager import TrafficManager

    sim = Simulator()
    tm = TrafficManager(
        sim, port_count=2, queues_per_port=2, queue_capacity_bytes=10_000
    )
    recorder = TmRecorder(sim)
    tm.set_egress_callback(recorder.egress)
    for kind in ("enqueue", "dequeue", "underflow", "transmit"):
        setattr(tm.hooks, f"on_{kind}", functools.partial(recorder.hook, kind))
    tm.set_port_enabled(0, False)
    for index in range(6):
        pkt = make_udp_packet(1, 2, payload_len=100 + 10 * index)
        pkt.egress_port = index % 2
        pkt.queue_id = index % 3  # 2 clamps to queue 1
        tm.enqueue(pkt)
    return sim, tm, recorder


def _drain(sim, tm, recorder):
    tm.set_port_enabled(0, True)
    sim.run()
    stats = [[vars(q.stats) for q in port.queues] for port in tm.ports]
    return recorder.log, stats


def _reduce_as_ports_before_backlog_counts(port):
    """``_Port`` pickle state as builds without the backlog counters wrote it."""
    state = dict(port.__dict__)
    del state["backlog_packets"], state["backlog_bytes"]
    state["_single_queue"] = port.queues[0] if len(port.queues) == 1 else None
    return copyreg.__newobj__, (type(port),), state


def test_tm_checkpoint_without_backlog_counts_resumes_identically():
    from repro.tm.traffic_manager import _Port

    sim, tm, recorder = _queued_tm()
    assert tm.ports[0].backlog_packets == 3 and tm.ports[1].backlog_packets == 2
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = {_Port: _reduce_as_ports_before_backlog_counts}
    pickler.dump((sim, tm, recorder))
    assert b"backlog_bytes" not in buffer.getvalue()

    restored_sim, restored_tm, restored_recorder = pickle.loads(buffer.getvalue())
    for port, original in zip(restored_tm.ports, tm.ports):
        assert not hasattr(port, "_single_queue")
        assert port.backlog_packets == original.backlog_packets
        assert port.backlog_bytes == original.backlog_bytes
    resumed = _drain(restored_sim, restored_tm, restored_recorder)
    straight = _drain(*_queued_tm())
    assert resumed == straight
    assert [entry[0] for entry in resumed[0]].count("egress") == 6
