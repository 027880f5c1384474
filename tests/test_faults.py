"""Tests for the seeded fault-injection subsystem (repro.faults)."""

import json

import pytest

from equivalence_strategies import ARMS, build
from repro.faults.chaos import (
    APP_NAMES,
    PLAN_NAMES,
    run_cell,
    run_grid,
    summary_rows,
    violation_count,
)
from repro.faults.injector import Degradation, FaultInjector, _reinstall_routes
from repro.faults.monitors import (
    FlowCacheCoherenceMonitor,
    PacketConservationMonitor,
    ReconvergenceMonitor,
)
from repro.faults.plan import BUILTIN_PLANS, FaultPlan, FaultSpec, get_plan
from repro.faults.scenarios import SCENARIOS, build_scenario
from repro.obs.faultlog import FaultLog
from repro.sim.rng import SeededRng


class TestFaultPlan:
    def test_builtin_plans_validate(self):
        for name in BUILTIN_PLANS:
            plan = get_plan(name)
            assert plan.name == name
            assert plan.specs
            assert set(plan.kinds()) <= {
                "link_flap",
                "link_degrade",
                "switch_stall",
                "switch_crash",
                "control_churn",
                "buffer_burst",
            }

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError):
            get_plan("nosuchplan")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="volcano")
        with pytest.raises(ValueError):
            FaultSpec(kind="link_flap", start_frac=0.8, end_frac=0.2)
        with pytest.raises(ValueError):
            FaultSpec(kind="link_flap", flaps=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="link_degrade", loss=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(kind="link_degrade", loss=0.7, corrupt=0.5)

    def test_window_and_checkpoint_placement(self):
        spec = FaultSpec(kind="switch_crash", start_frac=0.4, end_frac=0.8)
        start, end = spec.window_ps(1_000_000)
        assert (start, end) == (400_000, 800_000)
        assert spec.checkpoint_ps(1_000_000) == 200_000  # default start/2
        pinned = FaultSpec(
            kind="switch_crash", start_frac=0.4, end_frac=0.8, checkpoint_frac=0.1
        )
        assert pinned.checkpoint_ps(1_000_000) == 100_000

    def test_plan_is_immutable(self):
        plan = get_plan("linkflap")
        with pytest.raises(AttributeError):
            plan.name = "other"
        assert isinstance(plan, FaultPlan)


class TestDegradation:
    def test_deterministic_draws(self):
        a = Degradation(SeededRng(5, "deg"), loss=0.3, corrupt=0.2, jitter_ps=1000)
        b = Degradation(SeededRng(5, "deg"), loss=0.3, corrupt=0.2, jitter_ps=1000)
        verdicts_a = [a.judge(None) for _ in range(200)]
        verdicts_b = [b.judge(None) for _ in range(200)]
        assert verdicts_a == verdicts_b
        assert a.judged == 200
        assert a.dropped > 0 and a.corrupted > 0
        assert a.dropped + a.corrupted < 200

    def test_zero_rates_pass_everything(self):
        deg = Degradation(SeededRng(1, "deg"), loss=0.0, corrupt=0.0, jitter_ps=0)
        assert all(deg.judge(None) == ("ok", 0) for _ in range(50))
        assert deg.dropped == 0 and deg.corrupted == 0 and deg.delay_added_ps == 0


class TestFaultLog:
    def test_record_and_summaries(self):
        log = FaultLog()
        assert log.count() == 0
        assert log.last_time_ps() == -1
        log.record(100, "p", "link_flap", "link_down", "l0")
        log.record(300, "p", "control_churn", "churn_storm", "control")
        assert log.count() == 2
        assert log.last_time_ps() == 300
        assert log.kinds() == ["control_churn", "link_flap"]
        assert len(log.summary_rows()) >= 2


class TestFaultInjector:
    def _run(self, plan_name, app="frr", seed=11):
        plan = get_plan(plan_name)
        scenario = build_scenario(app, seed, flow_cache=True)
        log = FaultLog()
        injector = FaultInjector(
            scenario, plan, SeededRng(seed, f"t/{plan_name}"), log=log
        )
        injector.arm()
        scenario.network.run(until_ps=scenario.duration_ps)
        return scenario, injector, log

    def test_arm_twice_raises(self):
        plan = get_plan("linkflap")
        scenario = build_scenario("frr", 1, flow_cache=True)
        injector = FaultInjector(scenario, plan, SeededRng(1, "t"))
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_same_seed_same_fault_log(self):
        _, _, log_a = self._run("storm", seed=13)
        _, _, log_b = self._run("storm", seed=13)
        assert log_a.records == log_b.records
        assert log_a.count() > 0

    def test_stall_drops_ingress_and_suppresses_timers(self):
        scenario, _, log = self._run("stall", app="liveness")
        switch = scenario.resolve_switch("")
        assert switch.stalled is False  # unstalled by the end of the window
        assert switch.stalled_rx_drops > 0 or switch.stalled_timer_misses > 0
        assert [r["action"] for r in log.records if r["kind"] == "switch_stall"] == [
            "stall",
            "unstall",
        ]

    def test_crash_restores_checkpointed_state(self):
        scenario, injector, log = self._run("crash")
        actions = [r["action"] for r in log.records if r["kind"] == "switch_crash"]
        assert actions == ["checkpoint", "crash", "restore"]
        switch = scenario.resolve_switch("")
        assert switch.stalled is False
        assert injector._snapshots  # checkpoint was taken

    def test_restore_without_checkpoint_raises(self):
        plan = get_plan("crash")
        scenario = build_scenario("frr", 2, flow_cache=True)
        injector = FaultInjector(scenario, plan, SeededRng(2, "t"))
        switch = scenario.resolve_switch("")
        with pytest.raises(RuntimeError):
            injector._restore(0, switch)

    def test_churn_bumps_generations_and_invalidates(self):
        scenario, _, log = self._run("churn")
        assert scenario.control.table_updates > 0
        coherence = FlowCacheCoherenceMonitor(scenario.caches())
        assert coherence.check(churned=True) == []
        totals = coherence.totals()
        assert totals["invalidations"] > 0

    def test_reinstall_routes_preserves_values(self):
        scenario = build_scenario("frr", 3, flow_cache=True)
        _name, program = scenario.churn_targets[0]
        before = dict(program.routes.items())
        _reinstall_routes(program)
        assert dict(program.routes.items()) == before

    def test_churn_on_l3_routers_delivers_what_the_calm_run_does(self):
        # L3Router keeps its routes in an LpmTable, not a dict: churn
        # rewrites each entry through the table, so generations move and
        # the flow cache invalidates while every delivery stays the same.
        chain = {
            "family": "chain",
            "switches": 3,
            "hosts": [["h0", 0], ["h1", 2]],
            "latency_ps": 1_000_000,
            "queue_bytes": 65_536,
            "payload_len": 200,
            "load": {
                "kind": "paced",
                "seed": 1,
                "skew": 1.2,
                "packets": 40,
                "start_ps": 1_000_000,
                "gap_ps": 5_000_000,
            },
            "faults": None,
            "writes": [],
            "observe": None,
        }
        churn = {
            "plan": "churn",
            "link": ["s0", "s1"],
            "switch": "s1",
            "burst": ["s1", 1],
        }
        arrivals = []
        for faults in (None, churn):
            network, recorders = build({**chain, "faults": faults}, **ARMS["default"])
            tables = [sw.program.routes for sw in network.switches.values()]
            installed = [(t.entries(), t.generation) for t in tables]
            network.run()
            arrivals.append({name: r.arrivals for name, r in recorders.items()})
        assert arrivals[1] == arrivals[0]
        assert sum(map(len, arrivals[0].values())) == 80
        for table, (entries, generation) in zip(tables, installed):
            assert table.entries() == entries and table.generation > generation
        caches = [switch.flow_cache for switch in network.switches.values()]
        assert sum(cache.stats.invalidations for cache in caches) > 0

    def test_degrade_keeps_conservation_exact(self):
        scenario, injector, _ = self._run("linkdegrade")
        assert PacketConservationMonitor(scenario.network).check() == []
        degradation = injector.degradations[0]
        assert degradation.judged > 0
        assert degradation.dropped + degradation.corrupted > 0


class TestMonitors:
    def test_reconvergence_math(self):
        scenario = build_scenario("frr", 4, flow_cache=True)
        monitor = ReconvergenceMonitor(scenario.network.sim, scenario.sink)
        monitor.arrivals[:] = [100, 250, 900]
        assert monitor.reconvergence_ps(200) == 50
        assert monitor.reconvergence_ps(901) is None
        assert monitor.reconvergence_ps(-1) is None
        assert monitor.max_gap_ps() == 650

    def test_coherence_monitor_empty_caches(self):
        monitor = FlowCacheCoherenceMonitor([])
        assert monitor.check(churned=True) == []


class TestScenarios:
    @pytest.mark.parametrize("app", sorted(SCENARIOS))
    def test_builders_run_clean(self, app):
        scenario = build_scenario(app, 6, flow_cache=True)
        scenario.network.run(until_ps=scenario.duration_ps)
        assert PacketConservationMonitor(scenario.network).check() == []
        fingerprint = scenario.fingerprint([])
        assert fingerprint["delivered"] == 0
        assert "switches_crc" in fingerprint

    def test_resolvers(self):
        scenario = build_scenario("frr", 6, flow_cache=True)
        assert scenario.resolve_link("").name
        assert scenario.resolve_switch("").name == scenario.default_switch
        a_name, b_name = scenario.default_link
        named = scenario.resolve_link(f"{a_name}-{b_name}")
        assert named is scenario.resolve_link("")

    def test_flow_cache_toggle(self):
        cached = build_scenario("frr", 6, flow_cache=True)
        plain = build_scenario("frr", 6, flow_cache=False)
        assert cached.caches()
        assert not plain.caches()


class TestChaosGrid:
    def test_cell_is_clean_and_byte_stable(self):
        a = run_cell("linkflap", "frr", 7)
        b = run_cell("linkflap", "frr", 7)
        assert a["ok"] is True
        assert a["violations"] == []
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_grid_writes_jsonl(self, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        records = run_grid(["stall"], ["liveness"], [9], out_path=str(out))
        assert len(records) == 1
        lines = out.read_text().splitlines()
        assert json.loads(lines[0]) == records[0]
        assert violation_count(records) == 0
        rows = summary_rows(records)
        assert any("stall" in row for row in rows)

    def test_axes_are_canonical(self):
        assert PLAN_NAMES == tuple(sorted(BUILTIN_PLANS))
        assert APP_NAMES == tuple(sorted(SCENARIOS))
