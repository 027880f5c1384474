"""Compiled pipeline specialization (:mod:`repro.pisa.compile`).

The specializer may only ever change *speed*, never *behavior*: the
interpreted pipeline walk is the reference, and every test here either
demands byte-identical outcomes with compilation on vs off — including
subprocess runs of whole experiments, so the environment toggle is
exercised exactly the way CI and users flip it — or pokes the
invalidation/fallback machinery that keeps the guarantee honest under
control-plane mutation.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.apps.l3fwd import L3Router
from repro.arch.events import EventType
from repro.experiments.factories import make_baseline_switch
from repro.net.topology import build_linear
from repro.packet.builder import make_udp_packet
from repro.pisa.compile import PIPELINE_COMPILE_ENV, CompileSkip
from repro.pisa.table import ExactTable

H0_IP = 0x0A00_0001
H1_IP = 0x0A00_0002


@pytest.fixture(autouse=True)
def _compile_on_by_default(monkeypatch):
    # CI runs the whole suite under both REPRO_PIPELINE_COMPILE=1 and
    # =0; this module exercises the specializer itself, so pin the
    # default ON and let individual tests override as needed.
    monkeypatch.setenv(PIPELINE_COMPILE_ENV, "1")


def _fresh_l3():
    program = L3Router()
    program.install_host_routes({H0_IP: 0, H1_IP: 1})
    return program


def _drive(factory, program, count=20, flows=1):
    network = build_linear(factory, switch_count=1)
    switch = network.switches["s0"]
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


@pytest.fixture
def generated(monkeypatch):
    """Every walk the specializer exec-generates, in order; a spec it
    could not compile appears as its :class:`CompileSkip`."""
    from repro.pisa import compile as compile_mod

    walks = []
    original = compile_mod._generate_walk

    def counting(spec, stale):
        try:
            walk = original(spec, stale)
        except CompileSkip as exc:
            walks.append(exc)
            raise
        walks.append(walk)
        return walk

    monkeypatch.setattr(compile_mod, "_generate_walk", counting)
    return walks


def _send(network, count, flows=1):
    h0 = network.hosts["h0"]
    start = network.sim.now_ps + 1_000
    for i in range(count):
        network.sim.call_at(
            start + i * 200_000,
            h0.send,
            make_udp_packet(H0_IP + (i % flows), H1_IP, payload_len=200),
        )
    network.run()


# ----------------------------------------------------------------------
# Env toggle / constructor plumbing
# ----------------------------------------------------------------------
def test_constructor_and_env_toggles(monkeypatch, generated):
    network = build_linear(make_baseline_switch(compile=False), switch_count=1)
    assert network.switches["s0"].pipeline_compile is False
    monkeypatch.setenv(PIPELINE_COMPILE_ENV, "0")
    network = build_linear(make_baseline_switch(flow_cache=False), switch_count=1)
    switch = network.switches["s0"]
    assert switch.pipeline_compile is False
    switch.load_program(_fresh_l3())
    _send(network, type(switch).COMPILE_WARMUP + 4)
    assert generated == []  # compilation off: the handler walks forever
    monkeypatch.setenv(PIPELINE_COMPILE_ENV, "1")
    network = build_linear(make_baseline_switch(), switch_count=1)
    assert network.switches["s0"].pipeline_compile is True


def test_compile_waits_out_the_warmup_window(generated):
    network = build_linear(
        make_baseline_switch(flow_cache=False, compile=True), switch_count=1
    )
    switch = network.switches["s0"]
    switch.load_program(_fresh_l3())
    # Warm-up counts full walks of one kind: egress dispatches (no
    # handler on an L3 router) do not shorten the ingress window...
    _send(network, type(switch).COMPILE_WARMUP)
    assert generated == []  # still interpreting
    # ...and the next ingress walk compiles.
    _send(network, 1)
    assert len(generated) == 1
    _send(network, 4)
    assert len(generated) == 1  # the compiled walk stays bound


def test_cached_flows_never_compile(generated):
    network = build_linear(
        make_baseline_switch(flow_cache=True, compile=True), switch_count=1
    )
    switch = network.switches["s0"]
    switch.load_program(_fresh_l3())
    _send(network, 4 * type(switch).COMPILE_WARMUP, flows=2)
    # Every packet after each flow's first is replayed, not walked.
    assert switch.flow_cache.stats.hits == 4 * type(switch).COMPILE_WARMUP - 2
    assert generated == []


def test_compiled_walk_is_generated_code(generated):
    switch, received = _drive(make_baseline_switch(flow_cache=False), _fresh_l3())
    assert len(received) == 20
    (walk,) = generated
    source = walk.__repro_source__
    # The walk is flat generated code guarded by the tables' generations,
    # with the table probes inlined rather than called through apply().
    assert source.startswith("def _walk(ctx, pkt, meta):")
    assert ".generation != " in source
    assert ".apply(" not in source


# ----------------------------------------------------------------------
# Equivalence: compiled vs interpreted, in-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flow_cache", [True, False])
def test_l3_walk_identical_compiled_vs_interpreted(flow_cache, generated):
    sw_on, recv_on = _drive(
        make_baseline_switch(flow_cache=flow_cache, compile=True),
        _fresh_l3(),
        count=30,
        flows=3,
    )
    # With the cache on every flow is replayed after its first packet,
    # so no kind ever reaches its warm-up and nothing compiles.
    assert len(generated) == (0 if flow_cache else 1)
    sw_off, recv_off = _drive(
        make_baseline_switch(flow_cache=flow_cache, compile=False),
        _fresh_l3(),
        count=30,
        flows=3,
    )
    assert len(generated) == (0 if flow_cache else 1)
    assert _delivery_fingerprint(recv_on) == _delivery_fingerprint(recv_off)
    assert sw_on.state_summary() == sw_off.state_summary()
    # Inlined table probes keep the hit/miss counters exact.
    for table in ("acl", "routes", "nexthops"):
        on_t, off_t = getattr(sw_on.program, table), getattr(sw_off.program, table)
        assert (on_t.hit_count, on_t.miss_count) == (off_t.hit_count, off_t.miss_count)
    assert list(sw_on.program.next_hop_stats()) == list(
        sw_off.program.next_hop_stats()
    )


def test_table_mutation_invalidates_compiled_walk(generated):
    """The generation guard: a route change is visible to the next packet."""

    def run(compile):
        network = build_linear(
            make_baseline_switch(flow_cache=False, compile=compile), switch_count=1
        )
        switch = network.switches["s0"]
        program = _fresh_l3()
        switch.load_program(program)
        received = []
        network.hosts["h1"].add_sink(received.append)
        h0 = network.hosts["h0"]
        for i in range(24):
            network.sim.call_at(
                1_000 + i * 200_000,
                h0.send,
                make_udp_packet(H0_IP, H1_IP, payload_len=200),
            )
        # Mid-run control-plane mutation: remark DSCP on the H1 next hop.
        # Timed (1 µs link latency) so it lands after the COMPILE_WARMUP
        # window — the compiled walk is hot and must regenerate.
        network.sim.call_at(5_000_000, program.add_next_hop, 1, 1, 13)
        network.run()
        return switch, _delivery_fingerprint(received)

    sw_compiled, fp_compiled = run(True)
    assert len(generated) == 2  # warm-up compile, then the guard's regenerate
    sw_interp, fp_interp = run(False)
    assert len(generated) == 2
    assert fp_compiled == fp_interp
    # The mutation actually landed mid-run: later packets carry the remark.
    dscps = {headers[1][1]["dscp"] for _len, headers in fp_compiled}
    assert dscps == {0, 13}


def test_unfoldable_entry_falls_back_to_interpreter(generated):
    """Entries the specializer can't fold must not change behavior."""

    def fresh():
        program = _fresh_l3()
        # A negative next-hop id defeats the ROUTE_TO value fold, so the
        # walk for this pipeline cannot specialize; the runner keeps the
        # interpreted handler.
        program.routes.insert(0x0B00_0000, 8, program.routes.lookup_value(H1_IP))
        from repro.apps.l3fwd import ROUTE_TO

        program.routes.insert(0x0C00_0000, 8, ROUTE_TO.bind(nh=-5))
        return program

    sw_on, recv_on = _drive(
        make_baseline_switch(flow_cache=False, compile=True), fresh(), count=20
    )
    # Tried once after the warm-up, then never again.
    assert [type(walk) for walk in generated] == [CompileSkip]
    sw_off, recv_off = _drive(
        make_baseline_switch(flow_cache=False, compile=False), fresh(), count=20
    )
    assert _delivery_fingerprint(recv_on) == _delivery_fingerprint(recv_off)
    assert sw_on.state_summary() == sw_off.state_summary()


def _observed_l3_chain(observe_from_ps):
    """A 3-switch L3 chain, flow cache off, with an
    :class:`EventCounters` observer on every bus from ``observe_from_ps``
    (None: never); returns its observable outcome."""
    from repro.obs.counters import EventCounters

    network = build_linear(
        make_baseline_switch(flow_cache=False, compile=True), switch_count=3
    )
    switches = [network.switches[name] for name in sorted(network.switches)]
    for switch in switches:
        switch.load_program(_fresh_l3())
    received = []
    network.hosts["h1"].add_sink(
        lambda p: received.append((network.sim.now_ps, p.total_len))
    )

    def observe():
        for switch in switches:
            switch.bus.add_observer(EventCounters())

    if observe_from_ps is not None:
        network.sim.call_at(observe_from_ps, observe)
    _send(network, 3 * type(switches[0]).COMPILE_WARMUP, flows=3)
    return {
        "arrivals": received,
        "tables": [
            (t.hit_count, t.miss_count)
            for sw in switches
            for t in (sw.program.acl, sw.program.routes, sw.program.nexthops)
        ],
        "next_hops": [list(sw.program.next_hop_stats()) for sw in switches],
        "fired": [dict(sw.bus.fired) for sw in switches],
        "handled": [dict(sw.bus.handled) for sw in switches],
    }


def test_observing_does_not_change_the_walk(generated):
    observed = _observed_l3_chain(observe_from_ps=0)
    # Observed from before the first packet, every switch still warms up
    # and runs its compiled walk.
    assert len(generated) == 3
    bare = _observed_l3_chain(observe_from_ps=None)
    halfway = _observed_l3_chain(observe_from_ps=observed["arrivals"][24][0])
    assert observed["arrivals"] and len(observed["arrivals"]) == 48
    assert observed == bare == halfway


# ----------------------------------------------------------------------
# Pickling: runners never enter checkpoints
# ----------------------------------------------------------------------
def test_switch_pickles_and_lazily_recompiles(generated):
    network = build_linear(
        make_baseline_switch(flow_cache=False, compile=True), switch_count=1
    )
    switch = network.switches["s0"]
    switch.load_program(_fresh_l3())
    _send(network, 20)
    assert len(generated) == 1  # hot
    clone = pickle.loads(pickle.dumps(switch))
    assert clone._runners is None  # closures dropped, rebound on dispatch
    assert clone.pipeline_compile is True
    assert clone.rx_packets == switch.rx_packets
    # The first dispatch rebinds; the restored runner warms up afresh.
    warmup = type(clone).COMPILE_WARMUP
    for i in range(warmup + 1):
        pkt = make_udp_packet(H0_IP, H1_IP, payload_len=200)
        meta = clone.meta_pool.acquire(ingress_port=0, packet_length=pkt.total_len)
        clone._dispatch_packet_event(EventType.INGRESS_PACKET, pkt, meta)
        assert meta.egress_spec == 1
        assert list(clone._runners) == [EventType.INGRESS_PACKET]
        assert len(generated) == (1 if i < warmup else 2)
    assert clone.bus.handled[EventType.INGRESS_PACKET] == (
        switch.bus.handled[EventType.INGRESS_PACKET] + warmup + 1
    )


def test_table_getstate_drops_lookup_memo():
    table = ExactTable("t")
    from repro.pisa.action import NO_ACTION

    table.insert((1,), NO_ACTION.bind())
    table.apply((1,))
    table.apply((2,))
    clone = pickle.loads(pickle.dumps(table))
    assert (clone.hit_count, clone.miss_count) == (1, 1)
    assert clone.generation == table.generation


# ----------------------------------------------------------------------
# Subprocess equivalence: whole experiments, env-toggled like CI
# ----------------------------------------------------------------------
_SCENARIO_SCRIPT = """
import dataclasses, json, sys

MS = 1_000_000_000
scenario = sys.argv[1]

if scenario == "microburst":
    from repro.experiments.microburst_exp import run_event_driven
    digest = dataclasses.asdict(run_event_driven(duration_ps=4 * MS, seed=7))
elif scenario == "hula":
    from repro.experiments.hula_exp import run_load_balance
    digest = dataclasses.asdict(run_load_balance(duration_ps=3 * MS, seed=7))
elif scenario == "netcache":
    from repro.experiments.netcache_exp import run_netcache
    digest = dataclasses.asdict(
        run_netcache(duration_ps=8 * MS, shift_at_ps=4 * MS, seed=7)
    )
elif scenario == "l3fwd":
    from repro.apps.l3fwd import L3Router
    from repro.experiments.factories import make_baseline_switch
    from repro.net.topology import build_linear
    from repro.packet.builder import make_udp_packet

    network = build_linear(make_baseline_switch(), switch_count=1)
    switch = network.switches["s0"]
    program = L3Router()
    program.install_host_routes({0x0A00_0001: 0, 0x0A00_0002: 1})
    switch.load_program(program)
    received = []
    network.hosts["h1"].add_sink(received.append)
    for i in range(40):
        network.sim.call_at(
            1_000 + i * 200_000,
            network.hosts["h0"].send,
            make_udp_packet(0x0A00_0001 + (i % 4), 0x0A00_0002, payload_len=200),
        )
    network.run()
    digest = {
        "delivery": [
            (p.payload_len, [(type(h).__name__, h.field_values()) for h in p.headers])
            for p in received
        ],
        "state": switch.state_summary(),
        "next_hops": list(program.next_hop_stats()),
    }
elif scenario == "fattree_sharded":
    from repro.experiments.shard_exp import ShardScenario, run_sharded

    result = run_sharded(
        ShardScenario(topology="fattree", k=4, waves=1, packets_per_sender=2),
        shards=4,
        mode="inline",
    )
    digest = {
        "digest": result.digest,
        "received": result.total_received(),
    }
else:
    raise SystemExit(f"unknown scenario {scenario!r}")

print(json.dumps(digest, sort_keys=True, default=repr))
"""

SCENARIOS = ("microburst", "hula", "netcache", "l3fwd", "fattree_sharded")


def _run_scenario(scenario, compile_flag):
    env = dict(os.environ)
    env[PIPELINE_COMPILE_ENV] = compile_flag
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO_SCRIPT, scenario],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_subprocess_fingerprints_identical_compile_on_vs_off(scenario):
    off = _run_scenario(scenario, "0")
    on = _run_scenario(scenario, "1")
    assert json.loads(off)  # sanity: the digest is substantive JSON
    assert on == off  # byte-identical stdout, not just equal objects
