"""Flow-decision cache: correctness, invalidation, and equivalence.

The cache may only ever change *speed*, never *behavior*: every test
here drives the same workload with the cache on and off and demands
byte-identical outcomes, or exercises the versioning/purity machinery
that makes that guarantee hold.
"""

import dataclasses

import pytest

from repro.apps.common import ForwardingProgram
from repro.apps.l3fwd import L3Router
from repro.arch.events import EventType
from repro.arch.program import handler
from repro.experiments.factories import make_baseline_switch, make_sume_switch
from repro.net.topology import build_linear
from repro.packet.builder import make_udp_packet
from repro.packet.headers import Ipv4
from repro.pisa.action import Action
from repro.pisa.compile import PIPELINE_COMPILE_ENV
from repro.pisa.fastpath import FLOW_FASTPATH_ENV
from repro.pisa.flowcache import (
    FLOW_CACHE_ENV,
    UNCACHEABLE,
    FlowCache,
    VersionedDict,
    env_enabled,
)
from repro.pisa.table import ExactTable, LpmTable, TernaryTable

H0_IP = 0x0A00_0001
H1_IP = 0x0A00_0002
MS = 1_000_000_000  # 1 ms in ps


@pytest.fixture(autouse=True)
def _cache_on_by_default(monkeypatch):
    # CI runs the whole suite under both REPRO_FLOW_CACHE=1 and =0; this
    # module exercises the cache itself, so pin the default ON here and
    # let individual tests override the environment as needed.
    monkeypatch.setenv(FLOW_CACHE_ENV, "1")


class PlainForwarder(ForwardingProgram):
    """Route-dict forwarding only: a fully cacheable pipeline."""

    name = "plain-fwd"

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        self.forward_by_ip(pkt, meta)


def _drive(factory, program, count=20, flows=1):
    """Send ``count`` packets (round-robin over ``flows`` source IPs)
    through a one-switch linear topology; returns (switch, received)."""
    network = build_linear(factory, switch_count=1)
    switch = network.switches["s0"]
    if isinstance(program, ForwardingProgram):
        program.install_routes({H1_IP: 1, H0_IP: 0})
    switch.load_program(program)
    received = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(count):
        src = H0_IP + (i % flows)
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(src, H1_IP, payload_len=200),
        )
    network.run()
    return switch, received


def _delivery_fingerprint(received):
    return [
        (p.payload_len, [(type(h).__name__, h.field_values()) for h in p.headers])
        for p in received
    ]


# ----------------------------------------------------------------------
# VersionedDict / env toggle
# ----------------------------------------------------------------------
def test_versioned_dict_bumps_generation_on_every_mutation():
    d = VersionedDict()
    assert d.generation == 0
    d[1] = 2
    d.update({3: 4})
    d.setdefault(5, 6)
    d.setdefault(5, 7)  # present: still bumps (conservative is correct)
    del d[1]
    d.pop(3)
    d.popitem()
    d[8] = 9
    d.clear()
    assert d.generation == 9
    assert dict(d) == {}


def test_versioned_dict_survives_pickle_with_generation():
    import pickle

    d = VersionedDict({1: 2})
    d[3] = 4
    clone = pickle.loads(pickle.dumps(d))
    assert dict(clone) == {1: 2, 3: 4}
    assert clone.generation == d.generation


@pytest.mark.parametrize(
    "name", [FLOW_CACHE_ENV, PIPELINE_COMPILE_ENV, FLOW_FASTPATH_ENV]
)
def test_env_enabled_parsing(monkeypatch, name):
    # One parser serves all three accelerator toggles.
    monkeypatch.delenv(name, raising=False)
    assert env_enabled(name) is True
    assert env_enabled(name, default=False) is False
    for off in ("0", "false", "OFF", "no", ""):
        monkeypatch.setenv(name, off)
        assert env_enabled(name) is False
    monkeypatch.setenv(name, "1")
    assert env_enabled(name) is True


def test_constructor_and_env_toggles(monkeypatch):
    network = build_linear(make_baseline_switch(flow_cache=False), switch_count=1)
    assert network.switches["s0"].flow_cache is None
    monkeypatch.setenv(FLOW_CACHE_ENV, "0")
    network = build_linear(make_baseline_switch(), switch_count=1)
    assert network.switches["s0"].flow_cache is None
    monkeypatch.setenv(FLOW_CACHE_ENV, "1")
    network = build_linear(make_baseline_switch(), switch_count=1)
    assert network.switches["s0"].flow_cache is not None


# ----------------------------------------------------------------------
# Hit path: identical behavior, counted hits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory_fn", [make_baseline_switch, make_sume_switch])
def test_pure_program_hits_and_identical_delivery(factory_fn):
    sw_on, recv_on = _drive(factory_fn(), PlainForwarder(), count=20)
    sw_off, recv_off = _drive(
        factory_fn(flow_cache=False), PlainForwarder(), count=20
    )
    assert sw_off.flow_cache is None
    assert sw_on.flow_cache.stats.hits == 19
    assert sw_on.flow_cache.stats.misses == 1
    elided = sw_on._pipeline_for_kind(EventType.INGRESS_PACKET).walks_elided
    assert elided == 19
    assert _delivery_fingerprint(recv_on) == _delivery_fingerprint(recv_off)
    # TTL was decremented through the replay path too.
    assert all(p.get(Ipv4).ttl == 63 for p in recv_on)


def _microburst_run(duration_ps):
    """The §2 detector on the SUME dumbbell; returns (setup, result,
    packets received by rx0)."""
    from repro.experiments.microburst_exp import (
        finish_event_driven,
        prepare_event_driven,
    )

    setup = prepare_event_driven(duration_ps=duration_ps, seed=7)
    received = []
    setup.network.hosts["rx0"].add_sink(received.append)
    return setup, finish_event_driven(setup), received


def test_stateful_program_is_never_short_circuited(monkeypatch, capsys):
    from repro import cli
    from repro.apps.frr import StaticRouteProgram
    from repro.experiments.microburst_exp import RX_IP

    # A shared_register program gets no cache: nothing is keyed or
    # looked up, and the run equals one with the cache switched off.
    setup, result, received = _microburst_run(4 * MS)
    monkeypatch.setenv(FLOW_CACHE_ENV, "0")
    off_setup, off_result, off_received = _microburst_run(4 * MS)
    monkeypatch.setenv(FLOW_CACHE_ENV, "1")
    switches = setup.network.switches
    assert all(switch.flow_cache is None for switch in switches.values())
    assert all(
        switch._parked_flow_cache is None
        for switch in off_setup.network.switches.values()
    )
    assert result == off_result
    assert result.detections_total > 0
    assert setup.detector.detections == off_setup.detector.detections
    assert received and _delivery_fingerprint(received) == _delivery_fingerprint(
        off_received
    )

    # Loading a program without one gets the same cache back, cold.
    s1 = switches["s1"]
    parked = s1._parked_flow_cache
    assert parked is not None and not parked.attached
    static = StaticRouteProgram()
    static.install_route(RX_IP, 1)
    s1.load_program(static)
    assert s1.flow_cache is parked and parked.attached
    assert len(parked) == 0 and parked.stats.hits == parked.stats.misses == 0
    # The workload keeps sending: its few flows now hit at s1.
    before = len(received)
    setup.network.run(until_ps=setup.network.sim.now_ps + MS)
    assert len(received) > before
    assert 1 <= parked.stats.misses <= 4 < parked.stats.hits

    # events-stats names the reason, not just the off switches.
    def short_microburst_source(source):
        _microburst_run(MS)
        return {}

    monkeypatch.setattr(cli, "_run_event_source", short_microburst_source)
    cli.run_events_stats("microburst")
    out = capsys.readouterr().out
    assert "flow cache not attached on 2 switch(es)" in out
    assert "declares a shared_register" in out
    assert "REPRO_FLOW_CACHE=0" not in out


def test_recordable_counter_stays_exact_through_replay():
    def fresh():
        program = L3Router()
        program.install_host_routes({H0_IP: 0, H1_IP: 1})
        return program

    sw_on, recv_on = _drive(make_baseline_switch(), fresh(), count=30)
    sw_off, recv_off = _drive(make_baseline_switch(flow_cache=False), fresh(), count=30)
    assert sw_on.flow_cache.stats.hits > 0
    # Counter.count is a blind write: replayed per cached packet.
    assert list(sw_on.program.next_hop_stats()) == list(
        sw_off.program.next_hop_stats()
    )
    assert sw_on.program.tx_counter.total_packets() == 30
    assert _delivery_fingerprint(recv_on) == _delivery_fingerprint(recv_off)


def test_lru_eviction_is_counted():
    network = build_linear(make_baseline_switch(), switch_count=1)
    switch = network.switches["s0"]
    switch.flow_cache = FlowCache(network.sim, limit=2, name="tiny")
    program = PlainForwarder()
    program.install_routes({H1_IP: 1})
    switch.load_program(program)
    network.hosts["h1"].add_sink(lambda pkt: None)
    h0 = network.hosts["h0"]
    for i in range(4):  # 4 distinct flows through a 2-entry cache
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP + i, H1_IP, payload_len=200),
        )
    network.run()
    stats = switch.flow_cache.stats
    assert stats.misses == 4
    assert stats.evictions == 2
    assert len(switch.flow_cache) == 2


# ----------------------------------------------------------------------
# Generation-vector invalidation (satellite: no stale decision ever)
# ----------------------------------------------------------------------
def _noop(pkt, meta):
    return None


class _FibForwarder(ForwardingProgram):
    """Forwarding driven by an ExactTable, so entries can be repointed."""

    name = "table-fwd"

    def __init__(self):
        super().__init__()
        self.fib = ExactTable("fib")

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        ip = pkt.get(Ipv4)
        self.fib.apply((ip.dst,)).execute(pkt, meta)


def _run_mid_sim_repoint(flow_cache):
    set_port = Action(
        "set_port", lambda pkt, meta, port=0: meta.send_to_port(port), ("port",)
    )
    network = build_linear(
        make_baseline_switch(flow_cache=flow_cache), switch_count=1
    )
    switch = network.switches["s0"]
    program = _FibForwarder()
    program.fib.insert((H1_IP,), set_port.bind(port=1))
    switch.load_program(program)
    to_h1, to_h0 = [], []
    network.hosts["h1"].add_sink(to_h1.append)
    network.hosts["h0"].add_sink(to_h0.append)
    h0 = network.hosts["h0"]
    for i in range(10):
        network.sim.call_at(
            1_000 + i * 2_000_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    # Mid-simulation the control plane repoints the entry at port 0:
    # every packet processed afterwards must bounce back, even though
    # the flow's old decision sits in the cache.  (Sends are 2 µs apart
    # and the h0—s0 link adds 1 µs, so 9 µs lands between the ingress
    # of packet 3 and packet 4.)
    network.sim.call_at(
        9_000_000,
        program.fib.update_action,
        (H1_IP,),
        set_port.bind(port=0),
    )
    network.run()
    return switch, len(to_h1), len(to_h0)


def test_table_mutation_mid_sim_evicts_before_next_packet():
    switch, h1_cached, h0_cached = _run_mid_sim_repoint(True)
    _switch, h1_plain, h0_plain = _run_mid_sim_repoint(False)
    # The repoint took effect mid-run and the cache observed exactly the
    # same split as the uncached switch — no stale decision served.
    assert h0_cached > 0
    assert h1_cached > 0
    assert (h1_cached, h0_cached) == (h1_plain, h0_plain)
    assert h1_cached + h0_cached == 10
    stats = switch.flow_cache.stats
    assert stats.invalidations >= 1
    assert stats.hits >= 1


@pytest.mark.parametrize(
    "make_table,mutate",
    [
        (
            lambda: ExactTable("t"),
            [
                lambda t: t.insert((1,), Action("a", _noop).bind()),
                lambda t: t.update_action((1,), Action("b", _noop).bind()),
                lambda t: t.remove((1,)),
            ],
        ),
        (
            lambda: LpmTable("t"),
            [
                lambda t: t.insert(0x0A000000, 8, Action("a", _noop).bind()),
                lambda t: t.update_action(0x0A000000, 8, Action("b", _noop).bind()),
                lambda t: t.remove(0x0A000000, 8),
            ],
        ),
        (
            lambda: TernaryTable("t"),
            [
                lambda t: t.insert((1,), (0xFF,), 1, Action("a", _noop).bind()),
                lambda t: t.update_action((1,), (0xFF,), Action("b", _noop).bind()),
                lambda t: t.remove((1,), (0xFF,)),
            ],
        ),
    ],
    ids=["exact", "lpm", "ternary"],
)
def test_every_table_mutation_bumps_generation(make_table, mutate):
    table = make_table()
    generation = table.generation
    for op in mutate:
        op(table)
        assert table.generation > generation
        generation = table.generation
    table.set_default(Action("d", _noop).bind())
    assert table.generation > generation


def test_update_action_missing_entry_raises():
    exact = ExactTable("t")
    with pytest.raises(KeyError):
        exact.update_action((1,), Action("a", _noop).bind())
    lpm = LpmTable("t")
    with pytest.raises(KeyError):
        lpm.update_action(0x0A000000, 8, Action("a", _noop).bind())
    ternary = TernaryTable("t")
    with pytest.raises(KeyError):
        ternary.update_action((1,), (0xFF,), Action("a", _noop).bind())


# ----------------------------------------------------------------------
# Checkpoint-restore: caches start cold and deterministic
# ----------------------------------------------------------------------
def test_checkpoint_restore_starts_cold_then_rebuilds(tmp_path):
    from repro.sim.checkpoint import load_checkpoint, save_checkpoint

    network = build_linear(make_baseline_switch(), switch_count=1)
    switch = network.switches["s0"]
    program = PlainForwarder()
    program.install_routes({H1_IP: 1, H0_IP: 0})
    switch.load_program(program)
    received = []
    network.hosts["h1"].add_sink(received.append)
    h0 = network.hosts["h0"]
    for i in range(10):
        network.sim.call_at(
            1_000 + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP, H1_IP, payload_len=200),
        )
    network.run(until_ps=2_500_000)
    assert switch.flow_cache.stats.hits > 0

    path = str(tmp_path / "fc.ckpt")
    save_checkpoint(path, network.sim, state=network)
    sim2, network2, _header = load_checkpoint(path)
    cache2 = network2.switches["s0"].flow_cache
    # The memo is deliberately not checkpointed: restored runs start
    # cold (zero entries, zero counters) and rebuild warm.
    assert len(cache2) == 0
    assert cache2.stats.hits == 0
    received2 = []
    network2.hosts["h1"].add_sink(received2.append)
    sim2.run()
    network.run()
    assert cache2.stats.misses == 1
    assert cache2.stats.hits > 0
    assert len(received) == 10
    assert _delivery_fingerprint(received[-len(received2):]) == _delivery_fingerprint(
        received2
    )


# ----------------------------------------------------------------------
# Cache-on/off equivalence matrix over the paper's experiments
# ----------------------------------------------------------------------
def _with_cache(monkeypatch, flag, fn, *args, **kwargs):
    monkeypatch.setenv(FLOW_CACHE_ENV, flag)
    try:
        return fn(*args, **kwargs)
    finally:
        monkeypatch.delenv(FLOW_CACHE_ENV, raising=False)


@pytest.mark.parametrize("experiment", ["microburst", "hula", "netcache"])
def test_experiment_outputs_identical_with_cache_on_and_off(
    experiment, monkeypatch
):
    if experiment == "microburst":
        from repro.experiments.microburst_exp import run_event_driven

        def run():
            return dataclasses.asdict(
                run_event_driven(duration_ps=4 * MS, seed=7)
            )

    elif experiment == "hula":
        from repro.experiments.hula_exp import run_load_balance

        def run():
            return dataclasses.asdict(
                run_load_balance(duration_ps=3 * MS, seed=7)
            )

    else:
        from repro.experiments.netcache_exp import run_netcache

        def run():
            return dataclasses.asdict(
                run_netcache(
                    duration_ps=8 * MS, shift_at_ps=4 * MS, seed=7
                )
            )

    off = _with_cache(monkeypatch, "0", run)
    on = _with_cache(monkeypatch, "1", run)
    assert on == off


def test_state_summary_identical_with_cache_on_and_off():
    def fresh():
        program = L3Router()
        program.install_host_routes({H0_IP: 0, H1_IP: 1})
        return program

    sw_on, _ = _drive(make_baseline_switch(), fresh(), count=15)
    sw_off, _ = _drive(make_baseline_switch(flow_cache=False), fresh(), count=15)
    assert sw_on.state_summary() == sw_off.state_summary()


def test_observed_dispatch_still_counts_and_traces_identically():
    from repro.obs import RecordingObserver, observing

    def traced(flow_cache):
        observer = RecordingObserver()
        with observing(observer):
            switch, received = _drive(
                make_baseline_switch(flow_cache=flow_cache),
                PlainForwarder(),
                count=12,
            )
        return switch, received, observer

    sw_on, recv_on, obs_on = traced(True)
    sw_off, recv_off, obs_off = traced(False)
    assert sw_on.flow_cache.stats.hits > 0  # cache active under observers
    assert _delivery_fingerprint(recv_on) == _delivery_fingerprint(recv_off)
    assert obs_on.normalized() == obs_off.normalized()


# ----------------------------------------------------------------------
# Recording verdicts: which flows are stored, and which ops they replay
# ----------------------------------------------------------------------
def _inc(value):
    return value + 1


def _call(name, *args):
    def act(program, pkt):
        extern, method = name.split(".")
        getattr(getattr(program, extern), method)(*args)

    return act


def _rebind(program, pkt):
    program.seen += 1


def _append(program, pkt):
    program.log.append(pkt.payload_len)


def _new_attr(program, pkt):
    program.extra = 1


def _read_scalar(program, pkt):
    if program.seen < 0:
        raise AssertionError("unreachable")


def _rewrite_two_headers(program, pkt):
    eth, _ip, udp = pkt.headers
    eth.set(dst=0x0200_0000_00BB, src=0x0200_0000_00AA)
    udp.set(sport=4_000, dport=5_000)


def _resize_payload(program, pkt):
    pkt.payload_len = 64


def _write_pkt_meta(program, pkt):
    pkt.meta["matrix"] = pkt.payload_len


#: One ingress side effect per case; every program declares all eight
#: extern kinds, so each case also checks the untouched ones stay quiet.
_MATRIX_ACTIONS = {
    "plain": None,
    "scalar-read": _read_scalar,
    "attr-rebind": _rebind,
    "list-append": _append,
    "new-attr": _new_attr,
    "rewrite-two-headers": _rewrite_two_headers,
    "payload-len": _resize_payload,
    "pkt-meta": _write_pkt_meta,
    "counter.count": _call("counter.count", 0, 100),
    "cms.update": _call("cms.update", b"k"),
    "cms.add_signed": _call("cms.add_signed", b"k", 2),
    "bloom.insert": _call("bloom.insert", b"k"),
    "shreg.accumulate": _call("shreg.accumulate", 3),
    "swin.accumulate": _call("swin.accumulate", 1, 5),
    "swin.shift_all": _call("swin.shift_all"),
    "reg.read": _call("reg.read", 0),
    "reg.write": _call("reg.write", 0, 1),
    "reg.add": _call("reg.add", 0, 1),
    "reg.sub": _call("reg.sub", 0, 1),
    "reg.modify": _call("reg.modify", 0, _inc),
    "reg.clear": _call("reg.clear"),
    "reg.peek": _call("reg.peek", 0),
    "counter.read": _call("counter.read", 0),
    "counter.read_all": _call("counter.read_all"),
    "counter.clear": _call("counter.clear"),
    "meter.execute": _call("meter.execute", 0, 100, 0),
    "meter.tokens": _call("meter.tokens", 0, 0),
    "cms.query": _call("cms.query", b"k"),
    "cms.clear": _call("cms.clear"),
    "bloom.contains": _call("bloom.contains", b"k"),
    "bloom.clear": _call("bloom.clear"),
    "shreg.shift": _call("shreg.shift"),
    "shreg.window_sum": _call("shreg.window_sum"),
    "shreg.window_max": _call("shreg.window_max"),
    "shreg.head": _call("shreg.head"),
    "swin.window_sum": _call("swin.window_sum", 0),
    "swin.rate_bps": _call("swin.rate_bps", 0, 1_000),
    "pifo.push": _call("pifo.push", 1, "x"),
    "pifo.pop": _call("pifo.pop"),
    "pifo.peek_rank": _call("pifo.peek_rank"),
    "pifo.drain": _call("pifo.drain"),
}


class _MatrixProgram(ForwardingProgram):
    """Forwards by IP, then runs one matrix case's side effect."""

    name = "matrix"

    def __init__(self, case):
        from repro.pisa.externs.counter import Counter
        from repro.pisa.externs.meter import Meter
        from repro.pisa.externs.pifo import PifoQueue
        from repro.pisa.externs.register import Register
        from repro.pisa.externs.sketch import BloomFilter, CountMinSketch
        from repro.pisa.externs.window import ShiftRegister, SlidingWindow

        super().__init__()
        self._act = _MATRIX_ACTIONS[case]
        self.seen = 0
        self.log = []
        self.counter = Counter(4, name="counter")
        self.cms = CountMinSketch(16, 2, name="cms")
        self.bloom = BloomFilter(64, name="bloom")
        self.shreg = ShiftRegister(4, name="shreg")
        self.swin = SlidingWindow(4, 4, name="swin")
        self.reg = Register(4, name="reg")
        self.meter = Meter(4, cir_bps=1e9, cbs_bytes=10_000, name="meter")
        self.pifo = PifoQueue(64, name="pifo")
        for rank in range(8):
            self.pifo.push(rank, rank)  # pops and drains have work to do

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        self.forward_by_ip(pkt, meta)
        if self._act is not None:
            self._act(self, pkt)


def _recorded(cache):
    """Every stored verdict in insertion order: ``"uncacheable"``, or
    the entry's replayed ops as ``(extern, method, repr(args))``."""
    rows = []
    for entry in cache._entries.values():
        if entry is UNCACHEABLE:
            rows.append("uncacheable")
            continue
        for _bound, _args, kwargs in entry.ops:
            assert not kwargs
        rows.append(
            tuple(
                (bound.__self__.name, bound.__name__, repr(args))
                for bound, args, _kwargs in entry.ops
            )
        )
    return rows


def _stored_writes(cache):
    """Every stored entry's ``(rewrites, payload_len, pkt_meta_writes)``
    in insertion order."""
    return [
        (entry.rewrites, entry.payload_len, entry.pkt_meta_writes)
        for entry in cache._entries.values()
    ]


def _matrix_run(cases, recorded=_recorded):
    """Load each case's program in turn on one switch (a ``load_program``
    re-attach between cases) and send two packets on each of two flows.
    Returns what ``recorded`` reads off the cache after each case, and
    its counters."""
    network = build_linear(make_baseline_switch(), switch_count=1)
    switch = network.switches["s0"]
    network.hosts["h1"].add_sink(lambda pkt: None)
    h0 = network.hosts["h0"]
    rows = []
    for case in cases:
        program = _MatrixProgram(case)
        program.install_routes({H1_IP: 1, H0_IP: 0})
        switch.load_program(program)
        start = network.sim.now_ps
        for i in range(4):
            network.sim.call_at(
                start + 1_000 + i * 200_000,
                h0.send,
                make_udp_packet(H0_IP + i % 2, H1_IP, payload_len=100 + i % 2),
            )
        network.run()
        rows.append(recorded(switch.flow_cache))
    stats = switch.flow_cache.stats
    counts = (
        stats.hits,
        stats.misses,
        stats.uncacheable,
        stats.invalidations,
        stats.evictions,
    )
    return rows, counts


#: Recorded when every miss looked its shims up afresh:
#: ``(verdicts per flow, (hits, misses, uncacheable, invalidations,
#: evictions))``.  Binding the recording plan at attach must not move
#: a single verdict or op.
_UNCACHED = (["uncacheable"] * 2, (0, 0, 4, 0, 0))


def _replayed(*op):
    return ([(op,)] * 2, (2, 2, 0, 0, 0))


_MATRIX_GOLDEN = {
    "attr-rebind": _UNCACHED,
    "bloom.clear": _UNCACHED,
    "bloom.contains": _UNCACHED,
    "bloom.insert": _replayed("bloom", "insert", "(b'k',)"),
    "cms.add_signed": _replayed("cms", "add_signed", "(b'k', 2)"),
    "cms.clear": _UNCACHED,
    "cms.query": _UNCACHED,
    "cms.update": _replayed("cms", "update", "(b'k',)"),
    "counter.clear": _UNCACHED,
    "counter.count": _replayed("counter", "count", "(0, 100)"),
    "counter.read": _UNCACHED,
    "counter.read_all": _UNCACHED,
    "list-append": _UNCACHED,
    "meter.execute": _UNCACHED,
    "meter.tokens": _UNCACHED,
    "new-attr": (["uncacheable", ()], (1, 1, 2, 0, 0)),
    "pifo.drain": _UNCACHED,
    "pifo.peek_rank": _UNCACHED,
    "pifo.pop": _UNCACHED,
    "pifo.push": _UNCACHED,
    "plain": ([(), ()], (2, 2, 0, 0, 0)),
    "payload-len": ([(), ()], (2, 2, 0, 0, 0)),
    "pkt-meta": ([(), ()], (2, 2, 0, 0, 0)),
    "reg.add": _UNCACHED,
    "reg.clear": _UNCACHED,
    "reg.modify": _UNCACHED,
    "reg.peek": _UNCACHED,
    "reg.read": _UNCACHED,
    "reg.sub": _UNCACHED,
    "reg.write": _UNCACHED,
    "rewrite-two-headers": ([(), ()], (2, 2, 0, 0, 0)),
    "scalar-read": ([(), ()], (2, 2, 0, 0, 0)),
    "shreg.accumulate": _replayed("shreg", "accumulate", "(3,)"),
    "shreg.head": _UNCACHED,
    "shreg.shift": _UNCACHED,
    "shreg.window_max": _UNCACHED,
    "shreg.window_sum": _UNCACHED,
    "swin.accumulate": _replayed("swin", "accumulate", "(1, 5)"),
    "swin.rate_bps": _UNCACHED,
    "swin.shift_all": _replayed("swin", "shift_all", "()"),
    "swin.window_sum": _UNCACHED,
}


@pytest.mark.parametrize("case", sorted(_MATRIX_ACTIONS))
def test_recording_verdicts_match_golden(case):
    rows, counts = _matrix_run([case])
    assert (rows[0], counts) == _MATRIX_GOLDEN[case]


_TTL = (1, (("ttl", 63),))

#: What each flow's entry stores besides its ops, recorded while
#: ``commit`` still diffed against a header snapshot taken by ``begin``:
#: ``(rewrites, payload_len, pkt_meta_writes)``.  Every case forwards
#: by IP, so every entry also carries the TTL decrement.
_MATRIX_WRITES_GOLDEN = {
    "plain": [((_TTL,), None, None)] * 2,
    "rewrite-two-headers": [
        (
            (
                (0, (("dst", 0x0200_0000_00BB), ("src", 0x0200_0000_00AA))),
                _TTL,
                (2, (("sport", 4_000), ("dport", 5_000))),
            ),
            None,
            None,
        )
    ]
    * 2,
    "payload-len": [((_TTL,), 64, None)] * 2,
    "pkt-meta": [((_TTL,), None, {"matrix": 100}), ((_TTL,), None, {"matrix": 101})],
}


@pytest.mark.parametrize("case", sorted(_MATRIX_WRITES_GOLDEN))
def test_recorded_writes_match_golden(case):
    rows, _counts = _matrix_run([case], _stored_writes)
    assert rows[0] == _MATRIX_WRITES_GOLDEN[case]


def test_recording_verdicts_survive_reattach():
    cases = ["counter.count", "reg.read", "new-attr", "cms.update", "counter.count"]
    rows, counts = _matrix_run(cases)
    assert rows == [_MATRIX_GOLDEN[case][0] for case in cases]
    assert counts == (7, 7, 6, 0, 0)


class _RecirculateUntilPort2(ForwardingProgram):
    """Fresh packets go to port 1, recirculated ones to port 2; the
    egress walk recirculates unless it runs for port 2."""

    name = "recirc-until-2"

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        meta.send_to_port(1)

    @handler(EventType.RECIRCULATED_PACKET)
    def recirculated(self, ctx, pkt, meta):
        meta.send_to_port(2)

    @handler(EventType.EGRESS_PACKET)
    def egress(self, ctx, pkt, meta):
        if meta.egress_port != 2:
            meta.request_recirculation()


@pytest.mark.parametrize("flow_cache", [False, True])
def test_egress_walks_are_keyed_on_their_egress_port(flow_cache):
    # The egress walk for port 1 records "recirculate"; the recirculated
    # packet's egress walk for port 2 has the same headers and arrival
    # port, and must not replay that decision.
    from repro.sim.kernel import Simulator

    sim = Simulator()
    factory = make_baseline_switch(flow_cache=flow_cache, fastpath=False)
    switch = factory(sim, "s0", 3)
    switch.load_program(_RecirculateUntilPort2())
    sent = []
    switch.set_tx_callback(lambda pkt, port: sent.append(port))
    for i in range(3):
        pkt = make_udp_packet(H0_IP, H1_IP)
        sim.call_at(1_000 + i * 200_000, switch.receive, pkt, 0)
    sim.run()
    outcome = (switch.recirculations, sent, switch.dropped_by_program)
    assert outcome == (3, [2, 2, 2], 0)
