"""Checkpoint/restore: determinism across processes, one format
version per pickled layout, and typed failures.

Guarantees under test:

* a restored kernel replays a byte-identical ``(time, priority, seqno)``
  execution trace, pinned to a golden digest,
* the header lists exactly the state stores its payload carries,
* a file of any other format version, a truncated or bit-flipped file,
  and a payload naming a removed class all fail as
  :class:`CheckpointError`, while the header of any version stays
  readable,
* the classes and state keys a representative graph pickles are pinned
  to :data:`CHECKPOINT_VERSION`: a layout change without a version bump
  fails here,
* a SUME carrier in flight, a pending keyed ingress walk and a TM
  backlog behind a disabled port resume to the uninterrupted result,
* a microburst run checkpointed mid-simulation and resumed in a
  **fresh process** reaches the same final extern state, detections,
  and event counts as the uninterrupted run.
"""

import functools
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

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


def two_frames(payload: bytes, version: int = CHECKPOINT_VERSION) -> bytes:
    """A hand-built checkpoint: a minimal header frame, then ``payload``."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": version,
        "payload_crc32": zlib.crc32(payload),
    }
    return pickle.dumps(header, protocol=4) + payload


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
    with open(path, "rb") as fh:
        pickle.load(fh)  # the header frame
        assert zlib.crc32(fh.read()) == header["payload_crc32"]


def test_header_lists_only_the_payloads_stores():
    """The header describes the stores this checkpoint carries, not every
    store alive in the process: a second simulator's stores stay out."""
    from repro.faults.scenarios import build_scenario

    chain = build_scenario("l3chain", 1)
    bystander = build_scenario("hula", 1)  # alive, never checkpointed
    chain.network.run(until_ps=chain.duration_ps // 2)
    header = pickle.loads(dumps_checkpoint(chain.network.sim, state=chain))
    switches = sorted(chain.network.switches.items())
    assert header["stores"] == [
        store.describe()
        for _name, switch in switches
        for store in switch.state_stores()
    ]
    assert [row["name"] for row in header["stores"]] == [
        "s0.links", "s1.links", "s2.links"
    ]
    assert bystander.network.switches["leaf0"].state_stores()


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

    sim, tickers = _build()
    payload = pickle.dumps({"sim": sim, "state": tickers}, protocol=4)
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        other = tmp_path / f"v{version}.ckpt"
        other.write_bytes(two_frames(payload, version=version))
        # The header of any version reads; the payload never loads.
        assert inspect_checkpoint(str(other))["version"] == version
        names_both = f"version {version} .* version {CHECKPOINT_VERSION} "
        with pytest.raises(CheckpointError, match=names_both):
            load_checkpoint(str(other))
        with pytest.raises(CheckpointError, match=names_both):
            loads_checkpoint(other.read_bytes())


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


def _blob_naming(name: str) -> bytes:
    """A two-frame checkpoint whose payload references ``repro.state.store.name``."""
    # GLOBAL opcode by hand: the class is gone, so it cannot be pickled
    # by reference the normal way.
    return two_frames(
        b"\x80\x04}(\x8c\x03sim\x8c\x04nope\x8c\x05state"
        + b"crepro.state.store\n" + name.encode() + b"\n"
        + b"u."
    )


@pytest.mark.parametrize(
    "name",
    ["DictStore", "ShadowStore", "_rebuild_dict", "DenseStore", "_rebuild_dense"],
)
def test_payload_naming_a_removed_store_class_is_a_checkpoint_error(tmp_path, name):
    blob = _blob_naming(name)
    with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
        loads_checkpoint(blob)
    path = tmp_path / "old.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
        load_checkpoint(str(path))


@functools.lru_cache(maxsize=None)
def _microburst_checkpoint() -> bytes:
    """A real checkpoint: the §2 microburst run, cut halfway."""
    from repro.experiments.microburst_exp import prepare_event_driven
    from repro.sim.units import MILLISECONDS

    setup = prepare_event_driven(duration_ps=2 * MILLISECONDS)
    setup.network.run(until_ps=1 * MILLISECONDS)
    return dumps_checkpoint(setup.network.sim, state=setup)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_or_bit_flipped_checkpoint_is_a_checkpoint_error(data):
    blob = _microburst_checkpoint()
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        header = io.BytesIO(blob)
        pickle.load(header)
        offset = data.draw(st.integers(header.tell(), len(blob) - 1), label="offset")
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        damaged = bytes(flipped)
    with pytest.raises(CheckpointError):
        loads_checkpoint(damaged)


# ----------------------------------------------------------------------
# The pickled layout, pinned to the format version
# ----------------------------------------------------------------------
#: ``(CHECKPOINT_VERSION, digest of the pickled layout)``, see below.
PINNED_LAYOUT = (
    5,
    "079d0369d288a9722dbdf61992620d7fb2f80b6030eb074e9d488c75b1b61ced",
)


def _state_names(obj) -> tuple:
    """The names in ``obj``'s pickled state: attribute (or slot) names
    for the usual dict states, the state's type name otherwise."""
    reduced = obj.__reduce_ex__(4)
    state = reduced[2] if isinstance(reduced, tuple) and len(reduced) > 2 else None
    if isinstance(state, tuple) and all(
        isinstance(part, (dict, type(None))) for part in state
    ):  # (dict, slots)
        return tuple(sorted(name for part in state if part for name in part))
    if isinstance(state, dict):
        return tuple(sorted(state))
    return () if state is None else (type(state).__name__,)


def layout_digest(graph) -> str:
    """SHA-256 over the ``(class, state names)`` set of every ``repro``
    instance that pickling ``graph`` visits.  Names only, so every
    Python version computes the same digest."""
    seen = set()

    class Recorder(pickle.Pickler):
        def reducer_override(self, obj):
            cls = type(obj)
            if cls.__module__.startswith("repro.") and not isinstance(obj, type):
                seen.add((f"{cls.__module__}.{cls.__qualname__}", _state_names(obj)))
            return NotImplemented

    Recorder(io.BytesIO(), protocol=4).dump(graph)
    return hashlib.sha256(repr(sorted(seen)).encode()).hexdigest()


def _representative_graphs():
    """Mid-run graphs covering both switch families: the §2 microburst
    SUME pair at 1 ms, the same pair cut while its merger holds event
    records (a carrier-less cut pickles no :class:`Event`), and a chaos
    L3 chain of baseline switches with the flow cache and the fastpath
    on."""
    from repro.experiments.microburst_exp import prepare_event_driven
    from repro.faults.scenarios import build_scenario
    from repro.sim.units import MILLISECONDS

    setup = prepare_event_driven(duration_ps=2 * MILLISECONDS)
    setup.network.run(until_ps=1 * MILLISECONDS)
    pending = prepare_event_driven(duration_ps=2 * MILLISECONDS)
    pending.network.run(until_ps=1 * MILLISECONDS)
    merger = pending.network.switches["s0"].merger
    while not merger.pending_count:
        assert pending.network.sim.step(), "the run ended with no pending record"
    chain = build_scenario("l3chain", 1, flow_cache=True, fastpath=True)
    chain.network.run(until_ps=chain.duration_ps // 2)
    return [
        {"sim": setup.network.sim, "state": setup},
        {"sim": pending.network.sim, "state": pending},
        {"sim": chain.network.sim, "state": chain},
    ]


def test_pickled_layout_is_pinned_to_the_format_version(monkeypatch):
    from repro.pisa.compile import PIPELINE_COMPILE_ENV
    from repro.pisa.fastpath import FLOW_FASTPATH_ENV
    from repro.pisa.flowcache import FLOW_CACHE_ENV

    for name in (FLOW_CACHE_ENV, PIPELINE_COMPILE_ENV, FLOW_FASTPATH_ENV):
        monkeypatch.setenv(name, "1")
    layout = (CHECKPOINT_VERSION, layout_digest(_representative_graphs()))
    assert layout == PINNED_LAYOUT, (
        f"the pickled layout is now {layout[1]}: a checkpoint layout change "
        "needs its own format version, so bump CHECKPOINT_VERSION and "
        "re-pin PINNED_LAYOUT"
    )


# ----------------------------------------------------------------------
# Fresh-process microburst resume
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


def _run_snippet(code: str, args, **env_vars):
    env = dict(os.environ, **env_vars)
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


_FAT_TREE_DUMP = """
import hashlib, json
from repro.apps.l3fwd import L3Router
from repro.experiments.factories import make_baseline_switch
from repro.net.routing import ecmp_routes
from repro.net.topology import fat_tree_spec, realize
from repro.sim.checkpoint import dumps_checkpoint

spec = fat_tree_spec(4)
network = realize(spec, make_baseline_switch())
tables = ecmp_routes(spec)
for name, switch in network.switches.items():
    program = L3Router()
    program.install_host_routes(tables[name])
    switch.load_program(program)
blob = dumps_checkpoint(network.sim, state=network)
print(json.dumps([len(blob), hashlib.sha256(blob).hexdigest()]))
"""


def test_checkpoint_bytes_do_not_depend_on_the_hash_seed():
    # Each architecture description's event sets pickle sorted, not in
    # hash order: a loaded k=4 fat tree checkpoints to the same bytes
    # under every PYTHONHASHSEED.
    dumps = [
        _run_snippet(_FAT_TREE_DUMP, [], PYTHONHASHSEED=str(seed)) for seed in range(4)
    ]
    assert dumps == dumps[:1] * 4


# ----------------------------------------------------------------------
# A SUME carrier in flight
# ----------------------------------------------------------------------
def _sume_with_carriers_in_flight():
    """A SUME switch with an empty carrier (two event records) and a
    packet carrier between pipeline entry and exit."""
    from repro.apps.microburst import MicroburstDetector
    from repro.arch.events import Event, EventType
    from repro.arch.sume import SumeEventSwitch
    from repro.packet.builder import make_udp_packet

    sim = Simulator()
    switch = SumeEventSwitch(sim)
    program = MicroburstDetector(num_regs=16)
    program.install_route(0x0A00_0002, 1)
    switch.load_program(program)
    switch._inject_empty_packet(
        [
            Event(EventType.ENQUEUE, 0, None, {"flowID": 3, "pkt_len": 500}),
            Event(EventType.DEQUEUE, 0, None, {"flowID": 3, "pkt_len": 200}),
        ]
    )
    switch.receive(make_udp_packet(0x0A00_0001, 0x0A00_0002, payload_len=100), 0)
    return sim, switch


def test_sume_carrier_in_flight_resumes_identically():
    sim, switch = _sume_with_carriers_in_flight()
    assert sim.pending_events == 2
    restored_sim, restored, _header = loads_checkpoint(
        dumps_checkpoint(sim, state=switch)
    )
    restored_sim.run()
    reference_sim, reference = _sume_with_carriers_in_flight()
    reference_sim.run()

    def outcome(sim, switch):
        return (
            sim.now_ps,
            switch.program.flow_buf_size.peek(3),
            switch.pipeline.packets_processed,
            dict(switch.bus.handled),
            switch.tm.ports[1].tx_packets,
        )

    assert outcome(restored_sim, restored) == outcome(reference_sim, reference)
    assert restored.program.flow_buf_size.peek(3) == 300
    assert restored.tm.ports[1].tx_packets == 1


# ----------------------------------------------------------------------
# A pending ingress walk that carries its flow key
# ----------------------------------------------------------------------
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


def _checkpoint_mid_ingress_walk():
    """Run a cached, fastpath-enabled L3 chain until packets sit in an
    ingress pipe with the flow keys their fuse attempts built, then
    checkpoint it and run the restored copy to the end."""
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
    blob = dumps_checkpoint(sim, state=network)
    _sim, restored, _header = loads_checkpoint(blob)
    for switch in restored.switches.values():
        assert switch._ingress_key is None
    restored.run()
    return restored


def test_checkpoint_with_pending_keyed_ingress_walk_resumes_identically():
    keyed = _checkpoint_mid_ingress_walk()
    straight = _l3_chain(flow_cache=True, fastpath=True)
    straight.run()
    assert _l3_outcome(keyed) == _l3_outcome(straight)
    assert _l3_outcome(keyed)["received"] == 48


# ----------------------------------------------------------------------
# A traffic manager with a backlog behind a disabled port
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


def test_tm_backlog_behind_a_disabled_port_resumes_identically():
    sim, tm, recorder = _queued_tm()
    assert tm.ports[0].backlog_packets == 3 and tm.ports[1].backlog_packets == 2
    restored_sim, (restored_tm, restored_recorder), _header = loads_checkpoint(
        dumps_checkpoint(sim, state=(tm, recorder))
    )
    for port, original in zip(restored_tm.ports, tm.ports):
        assert port.backlog_packets == original.backlog_packets
        assert port.backlog_bytes == original.backlog_bytes
    resumed = _drain(restored_sim, restored_tm, restored_recorder)
    straight = _drain(*_queued_tm())
    assert resumed == straight
    assert [entry[0] for entry in resumed[0]].count("egress") == 6


# ----------------------------------------------------------------------
# A checkpoint cut while a slow port serializes
# ----------------------------------------------------------------------
def _slow_port_tm():
    """A TM whose slow port is serializing its first packet at the cut
    (500 ps), with a second arrival due at 1,000 ps: long before that
    transmission ends, so the arrival must wait behind it."""
    import functools

    from repro.packet.builder import make_udp_packet
    from repro.tm.traffic_manager import TrafficManager

    sim = Simulator()
    tm = TrafficManager(sim, port_count=1, port_rate_gbps=0.001)
    recorder = TmRecorder(sim)
    tm.set_egress_callback(recorder.egress)
    for kind in ("enqueue", "dequeue", "underflow", "transmit"):
        setattr(tm.hooks, f"on_{kind}", functools.partial(recorder.hook, kind))
    for at_ps, payload_len in ((0, 100), (1_000, 200)):
        pkt = make_udp_packet(1, 2, payload_len=payload_len)
        pkt.egress_port = 0
        sim.call_at(at_ps, tm.enqueue, pkt)
    sim.run(until_ps=500)
    return sim, tm, recorder


def test_checkpoint_while_a_slow_port_serializes_resumes_identically():
    sim, tm, recorder = _slow_port_tm()
    assert tm.ports[0].busy  # the cut falls inside the first transmission
    restored_sim, (_tm, restored), _header = loads_checkpoint(
        dumps_checkpoint(sim, state=(tm, recorder))
    )
    restored_sim.run()
    straight_sim, _tm, straight = _slow_port_tm()
    straight_sim.run()
    assert restored.log == straight.log
    egress = [entry for entry in straight.log if entry[0] == "egress"]
    assert [entry[2] for entry in egress] == [142, 242]
    assert egress[1][1] > 2 * egress[0][1]  # back to back, not overlapping
