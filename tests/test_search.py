"""The search harness: domains, objectives, strategies, runner, reports.

Satellite guarantees under test:

* seed determinism — the same ``SearchSpec`` produces byte-identical
  ``SEARCH_*.json`` artifacts across runs (and across inline vs pooled
  execution),
* objective edge cases — a missing metric or a NaN result is a recorded
  trial error, never a winner, and ties break toward the earlier trial,
* a worker process crash mid-trial respawns the worker and retries the
  trial once,
* a search submitted through the job service is equivalent to the
  inline run (same artifact, same best-trial fingerprint).
"""

import dataclasses
import json
import os

import pytest

from repro import scenarios
from repro.scenarios import ScenarioSpec
from repro.search import (
    ChoiceDomain,
    ObjectiveError,
    RangeDomain,
    SearchError,
    SearchSpec,
    ascii_frontier,
    compare,
    domain_from_dict,
    evaluate,
    extract_metrics,
    leaderboard,
    make_strategy,
    parse_domain,
    read_artifact,
    run_search,
    sanitize_metrics,
    trial_fingerprint,
    write_artifact,
)
from repro.search.strategies import best_scored

#: Declared knobs of the test landscape scenario.
LANDSCAPE = "search-test/landscape"


def _register_helpers() -> None:
    scenarios.load_all()
    for name, runner, params in (
        (LANDSCAPE, "landscape", {"x": 0.0, "y": 0, "style": "bowl"}),
        ("search-test/flat", "flat", {"x": 0.0}),
        ("search-test/nan", "nan_metric", {"x": 0.0}),
        ("search-test/sparse", "sparse_metric", {"x": 0.0}),
        ("search-test/crash", "crash_worker", {"x": 0.0, "sentinel": ""}),
    ):
        if name in scenarios.names():
            continue
        scenarios.register(
            ScenarioSpec(
                name=name,
                runner=f"tests.search_helpers:{runner}",
                params=params,
            )
        )


def _landscape_spec(**overrides) -> SearchSpec:
    _register_helpers()
    fields = dict(
        scenario=LANDSCAPE,
        objective="score",
        domains={
            "x": RangeDomain(0.0, 6.0, steps=4),
            "y": RangeDomain(0, 4, steps=5, integer=True),
        },
        strategy="grid",
        budget=20,
        seed=11,
        label="t",
    )
    fields.update(overrides)
    return SearchSpec(**fields)


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------
class TestDomains:
    def test_choice_grid_sample_mutate(self):
        from repro.sim.rng import SeededRng

        domain = ChoiceDomain(values=("a", "b", "c"))
        assert domain.grid_points() == ["a", "b", "c"]
        rng = SeededRng(3, "t")
        assert domain.sample(rng) in ("a", "b", "c")
        assert domain.mutate("a", rng) in ("a", "b", "c")
        with pytest.raises(SearchError, match="at least one value"):
            ChoiceDomain(values=())

    def test_range_grid_endpoints_and_integer_dedup(self):
        linear = RangeDomain(0.0, 1.0, steps=3)
        assert linear.grid_points() == [0.0, 0.5, 1.0]
        integer = RangeDomain(1, 3, steps=5, integer=True)
        assert integer.grid_points() == [1, 2, 3]  # rounded, de-duplicated

    def test_log_range_is_log_spaced(self):
        domain = RangeDomain(1.0, 100.0, steps=3, log=True)
        points = domain.grid_points()
        assert points[0] == pytest.approx(1.0)
        assert points[1] == pytest.approx(10.0)
        assert points[2] == pytest.approx(100.0)
        with pytest.raises(SearchError, match="low > 0"):
            RangeDomain(0.0, 10.0, log=True)

    def test_range_validation(self):
        with pytest.raises(SearchError, match="low < high"):
            RangeDomain(2.0, 1.0)
        with pytest.raises(SearchError, match="steps"):
            RangeDomain(0.0, 1.0, steps=1)

    def test_mutate_stays_in_interval(self):
        from repro.sim.rng import SeededRng

        domain = RangeDomain(0.0, 1.0)
        rng = SeededRng(5, "m")
        for index in range(50):
            value = domain.mutate(0.95, rng.child(str(index)))
            assert 0.0 <= value <= 1.0

    def test_parse_domain_forms(self):
        assert parse_domain("choice:red,7,true").values == ("red", 7, True)
        ranged = parse_domain("range:1:9:5")
        assert (ranged.low, ranged.high, ranged.steps) == (1.0, 9.0, 5)
        assert not ranged.integer and not ranged.log
        assert parse_domain("irange:1:9").integer
        assert parse_domain("log:0.1:10").log
        with pytest.raises(SearchError, match="unknown kind"):
            parse_domain("banana:1:2")
        with pytest.raises(SearchError, match="lo:hi"):
            parse_domain("range:1")

    def test_domain_dict_round_trip(self):
        for domain in (
            ChoiceDomain(values=(1, "two")),
            RangeDomain(0.5, 2.0, steps=7, log=True),
            RangeDomain(1, 10, integer=True),
        ):
            assert domain_from_dict(domain.to_dict()) == domain
        with pytest.raises(SearchError, match="unknown domain kind"):
            domain_from_dict({"kind": "nope"})


# ----------------------------------------------------------------------
# SearchSpec
# ----------------------------------------------------------------------
class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(SearchError, match="strategy"):
            _landscape_spec(strategy="anneal")
        with pytest.raises(SearchError, match="mode"):
            _landscape_spec(mode="uppish")
        with pytest.raises(SearchError, match="at least one parameter domain"):
            _landscape_spec(domains={})
        with pytest.raises(SearchError, match="both domains and fixed"):
            _landscape_spec(fixed={"x": 1.0})
        with pytest.raises(SearchError, match="budget"):
            _landscape_spec(budget=0)

    def test_validate_rejects_undeclared_knobs(self):
        spec = _landscape_spec(domains={"nonsense": RangeDomain(0.0, 1.0)})
        with pytest.raises(SearchError, match="undeclared knob.*nonsense"):
            spec.validate()
        _landscape_spec().validate()  # declared knobs pass

    def test_dict_round_trip_rejects_unknown_keys(self):
        spec = _landscape_spec(fixed={"style": "ridge"}, strategy="evolve")
        assert SearchSpec.from_dict(spec.to_dict()) == spec
        bad = spec.to_dict()
        bad["surprise"] = 1
        with pytest.raises(SearchError, match="unknown search spec key"):
            SearchSpec.from_dict(bad)


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Nested:
    inner: dict


@dataclasses.dataclass
class _Result:
    fairness: float
    drops: int
    flows: list
    ok: bool
    nested: _Nested


class TestObjective:
    def test_extract_metrics_flattens(self):
        result = _Result(
            fairness=0.9,
            drops=3,
            flows=[1, 2, 5],
            ok=True,
            nested=_Nested(inner={"depth": 2.5}),
        )
        metrics = extract_metrics(result)
        assert metrics == {
            "fairness": 0.9,
            "drops": 3,
            "flows.len": 3,
            "ok": 1,
            "nested.inner.depth": 2.5,
        }
        assert extract_metrics(7.5) == {"value": 7.5}
        assert extract_metrics({"a": {"b": 1}}) == {"a.b": 1}

    def test_sanitize_replaces_non_finite(self):
        safe = sanitize_metrics(
            {"nan": float("nan"), "inf": float("inf"), "ok": 1.5}
        )
        assert safe == {"inf": "inf", "nan": "nan", "ok": 1.5}
        json.dumps(safe, allow_nan=False)  # strict-JSON clean

    def test_evaluate_expressions(self):
        metrics = {"fairness": 0.8, "drops": 10.0}
        assert evaluate("fairness", metrics) == pytest.approx(0.8)
        value = evaluate("fairness - 0.01 * drops", metrics)
        assert value == pytest.approx(0.7)
        assert evaluate("max(fairness, 0.9)", metrics) == pytest.approx(0.9)
        assert evaluate("1 if drops > 5 else 0", metrics) == 1.0

    def test_missing_metric_lists_available(self):
        with pytest.raises(ObjectiveError, match="available: drops, fairness"):
            evaluate("latency", {"fairness": 1.0, "drops": 0})

    def test_non_finite_results_are_errors(self):
        with pytest.raises(ObjectiveError, match="non-finite"):
            evaluate("score", {"score": float("nan")})
        with pytest.raises(ObjectiveError, match="division by zero"):
            evaluate("1 / drops", {"drops": 0})

    def test_whitelist_rejects_unsafe_constructs(self):
        for expression in (
            "__import__('os')",
            "metrics['x']",
            "a.b",
            "'text'",
            "[1, 2]",
            "min(x, default=1)",
        ):
            with pytest.raises(ObjectiveError):
                evaluate(expression, {"x": 1.0, "a": 2.0, "metrics": 3.0})

    def test_tie_break_prefers_earlier_trial(self):
        tied = [({"x": 1}, 5.0, 4), ({"x": 2}, 5.0, 1), ({"x": 3}, 5.0, 2)]
        assert best_scored(tied, "max")[2] == 1
        assert best_scored(tied, "min")[2] == 1
        assert best_scored([({"x": 1}, None, 0)] + tied, "max")[2] == 1


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_grid_is_the_cartesian_product(self):
        spec = _landscape_spec(budget=50)
        batch = make_strategy(spec).ask()
        assert len(batch) == 4 * 5
        assert batch[0] == {"x": 0.0, "y": 0}
        assert len({json.dumps(p, sort_keys=True) for p in batch}) == 20

    def test_grid_truncates_to_budget(self):
        spec = _landscape_spec(budget=7)
        strategy = make_strategy(spec)
        assert len(strategy.ask()) == 7
        assert strategy.truncated
        assert strategy.ask() == []

    def test_random_and_evolve_propose_deterministically(self):
        for strategy_name in ("random", "evolve"):
            spec = _landscape_spec(
                strategy=strategy_name, budget=10, population=4, generations=2
            )
            first = make_strategy(spec)
            second = make_strategy(spec)
            while True:
                batch_a, batch_b = first.ask(), second.ask()
                assert batch_a == batch_b
                if not batch_a:
                    break
                scored = [
                    (params, float(i), i) for i, params in enumerate(batch_a)
                ]
                first.tell(scored)
                second.tell(scored)

    def test_evolve_keeps_elite_and_respects_budget(self):
        spec = _landscape_spec(
            strategy="evolve", budget=7, population=4, generations=3
        )
        strategy = make_strategy(spec)
        gen0 = strategy.ask()
        assert len(gen0) == 4
        scored = [(params, float(i), i) for i, params in enumerate(gen0)]
        strategy.tell(scored)
        gen1 = strategy.ask()
        assert len(gen1) == 3  # budget 7 caps the second generation
        assert gen1[0] == gen0[-1]  # elitism: best-so-far survives verbatim
        strategy.tell([(p, 0.0, i + 4) for i, p in enumerate(gen1)])
        assert strategy.ask() == []
        assert strategy.truncated


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class TestRunSearch:
    def test_artifacts_are_byte_identical_across_runs(self, tmp_path):
        for strategy_name in ("grid", "random", "evolve"):
            spec = _landscape_spec(
                strategy=strategy_name, budget=8, population=4, generations=2
            )
            paths = []
            for attempt in ("a", "b"):
                data = run_search(spec, workers=0, host=False)
                path = str(tmp_path / f"SEARCH_{strategy_name}_{attempt}.json")
                write_artifact(data, path)
                paths.append(path)
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                assert fa.read() == fb.read(), strategy_name

    def test_pool_matches_inline_exactly(self):
        spec = _landscape_spec(strategy="random", budget=6)
        pooled = run_search(spec, workers=2, host=False)
        inline = run_search(spec, workers=0, host=False)
        assert pooled == inline

    def test_phased_trial_counts_the_finishers_events(self):
        # The finisher runs on a fork made outside any observing()
        # block; its events must still be counted, identically for a
        # fresh build and a cached one, and as a standalone run counts.
        from collections import OrderedDict

        from repro.obs import EventCounters, observing
        from repro.search.worker import run_trial

        scenarios.load_all()
        base = scenarios.get("microburst/event-driven")
        base = base.with_params(duration_ps=2_000_000_000)
        params = {"background_senders": 3}
        cache: OrderedDict = OrderedDict()
        fresh = run_trial(base, params, cache)
        forked = run_trial(base, params, cache)
        assert (fresh["source"], forked["source"]) == ("fresh", "forked")
        assert fresh["counters"] == forked["counters"]
        counters = EventCounters()
        with observing(counters):
            base.with_params(**params).run()
        standalone = {
            "published": counters.total_published(),
            "handled": sum(counters.handled.values()),
            "dropped": sum(counters.dropped.values()),
        }
        phased = dict(fresh["counters"])
        assert phased.pop("events_executed") > 0
        assert phased == standalone
        assert phased["published"] > 0 and phased["handled"] > 0

    def test_grid_finds_the_known_optimum(self):
        spec = _landscape_spec(budget=50)
        data = run_search(spec, workers=0, host=False)
        assert data["best"]["params"] == {"x": 2.0, "y": 2}
        assert data["best"]["objective"] == pytest.approx(9.0)
        assert data["best"]["error"] is None
        indices = [point["index"] for point in data["frontier"]]
        assert indices == sorted(indices)

    def test_evolve_improves_on_generation_zero(self):
        spec = _landscape_spec(
            strategy="evolve", budget=40, population=8, generations=5, seed=3
        )
        data = run_search(spec, workers=0, host=False)
        gen0_best = max(
            t["objective"] for t in data["trials"] if t["generation"] == 0
        )
        assert data["best"]["objective"] >= gen0_best

    def test_min_mode_targets_the_valley(self):
        spec = _landscape_spec(objective="cost", mode="min", budget=50)
        data = run_search(spec, workers=0, host=False)
        assert data["best"]["params"] == {"x": 2.0, "y": 2}
        assert data["best"]["objective"] == pytest.approx(-9.0)

    def test_flat_landscape_ties_break_to_first_trial(self):
        _register_helpers()
        spec = SearchSpec(
            scenario="search-test/flat",
            objective="score",
            domains={"x": RangeDomain(0.0, 1.0, steps=4)},
            budget=4,
        )
        data = run_search(spec, workers=0, host=False)
        assert data["best"]["index"] == 0
        assert len(data["frontier"]) == 1

    def test_nan_and_missing_metrics_are_trial_errors(self):
        _register_helpers()
        nan_spec = SearchSpec(
            scenario="search-test/nan",
            objective="score",
            domains={"x": RangeDomain(-2.0, 2.0, steps=3)},
            budget=3,
        )
        data = run_search(nan_spec, workers=0, host=False)
        errors = [t for t in data["trials"] if t["error"]]
        assert len(errors) == 2  # x = 0 and x = 2 produce NaN
        assert all("non-finite" in t["error"] for t in errors)
        assert all(t["metrics"]["score"] == "nan" for t in errors)
        assert data["best"]["params"] == {"x": -2.0}

        sparse_spec = SearchSpec(
            scenario="search-test/sparse",
            objective="score",
            domains={"x": RangeDomain(0.0, 1.0, steps=2)},
            budget=2,
        )
        data = run_search(sparse_spec, workers=0, host=False)
        assert data["best"] is None
        assert data["frontier"] == []
        assert all("no metric 'score'" in t["error"] for t in data["trials"])

    def test_worker_crash_respawns_and_retries(self, tmp_path):
        _register_helpers()
        sentinel = str(tmp_path / "crash.sentinel")
        spec = SearchSpec(
            scenario="search-test/crash",
            objective="score",
            domains={"x": RangeDomain(0.0, 3.0, steps=4)},
            fixed={"sentinel": sentinel},
            budget=4,
        )
        data = run_search(spec, workers=2, host=True)
        assert os.path.exists(sentinel)
        assert data["host"]["crash_retries"] >= 1
        assert all(t["error"] is None for t in data["trials"])
        assert data["best"]["objective"] == pytest.approx(3.0)

    def test_artifact_io_round_trip_and_schema_check(self, tmp_path):
        spec = _landscape_spec(budget=4)
        data = run_search(spec, workers=0, host=True)
        assert set(data["host"]) == {
            "wall_s_total",
            "wall_s_trials",
            "fresh_builds",
            "forked",
            "crash_retries",
            "workers",
        }
        path = str(tmp_path / "SEARCH_t.json")
        write_artifact(data, path)
        assert read_artifact(path) == data
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump({"schema": 9}, fh)
        with pytest.raises(SearchError, match="not a schema-1 search artifact"):
            read_artifact(bad)

    def test_fingerprint_is_stable_and_param_sensitive(self):
        fp = trial_fingerprint("s", {"a": 1}, {"m": 2.0})
        assert fp == trial_fingerprint("s", {"a": 1}, {"m": 2.0})
        assert fp != trial_fingerprint("s", {"a": 2}, {"m": 2.0})


# ----------------------------------------------------------------------
# Service submission
# ----------------------------------------------------------------------
class TestServiceSearch:
    def test_service_submitted_search_matches_inline(self):
        from repro.serve.client import submit_inline

        spec = _landscape_spec(strategy="evolve", budget=8, population=4,
                               generations=2)
        inline = run_search(spec, workers=0, host=False)
        record = submit_inline("search/run", {"search": spec.to_dict()})
        assert record["state"] == "done"
        artifact = record["result"]["value"]
        assert artifact == inline
        assert (
            artifact["best"]["fingerprint"] == inline["best"]["fingerprint"]
        )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def test_leaderboard_ranks_and_flags_failures(self):
        spec = _landscape_spec(budget=6)
        data = run_search(spec, workers=0, host=False)
        lines = leaderboard(data, top=3)
        assert "rank" in lines[1]
        assert len(lines) >= 5
        first = lines[2]
        assert first.lstrip().startswith("1")

    def test_ascii_frontier_shapes(self):
        spec = _landscape_spec(budget=12)
        data = run_search(spec, workers=0, host=False)
        chart = ascii_frontier(data, width=20, height=4)
        assert any("#" in line for line in chart)
        assert "trial 0 .." in chart[-1]
        empty = {"trials": [], "frontier": []}
        assert ascii_frontier(empty) == [
            "(no successful trials; nothing to chart)"
        ]

    def test_compare_detects_mode_aware_regressions(self):
        spec = _landscape_spec(budget=20)
        good = run_search(spec, workers=0, host=False)
        worse_spec = _landscape_spec(
            budget=4, domains={"x": RangeDomain(4.5, 6.0, steps=2),
                               "y": RangeDomain(0, 4, steps=2, integer=True)}
        )
        worse = run_search(worse_spec, workers=0, host=False)
        lines, problems = compare(good, worse, max_regression=0.05)
        assert problems and "regressed" in problems[0]
        lines, problems = compare(worse, good, max_regression=0.0)
        assert not problems  # improvements never gate
        assert any("best objective" in line for line in lines)

    def test_compare_refuses_mismatched_searches(self):
        a = run_search(_landscape_spec(budget=2), workers=0, host=False)
        b = run_search(
            _landscape_spec(budget=2, objective="cost", mode="min"),
            workers=0,
            host=False,
        )
        _lines, problems = compare(a, b)
        assert any("disagree on objective" in p for p in problems)

    def test_search_stats_rollup(self):
        from repro.obs import SearchStats

        spec = _landscape_spec(budget=4)
        data = run_search(spec, workers=0, host=True)
        stats = SearchStats.from_artifact(data)
        assert stats.trials == 4 and stats.failed == 0
        assert "trials: 4" in stats.summary_rows()[0]
        assert stats.as_dict()["crash_retries"] == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSearchCli:
    def test_cli_run_report_compare(self, tmp_path, capsys):
        from repro.cli import main

        _register_helpers()
        out_a = str(tmp_path / "SEARCH_a.json")
        out_b = str(tmp_path / "SEARCH_b.json")
        argv = [
            "search", "--scenario", LANDSCAPE, "--objective", "score",
            "--domain", "x=range:0:6:4", "--domain", "y=irange:0:4:5",
            "--strategy", "grid", "--budget", "30", "--label", "cli",
            "--omit-host", "--workers", "0",
        ]
        assert main(argv + ["--out", out_a]) == 0
        assert main(argv + ["--out", out_b]) == 0
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()
        assert main(["search", "--report", out_a, "--top", "3"]) == 0
        assert main(["search", "--compare", out_a, out_b]) == 0
        capsys.readouterr()

    def test_cli_rejects_bad_specs(self, capsys):
        from repro.cli import main

        _register_helpers()
        code = main(
            [
                "search", "--scenario", LANDSCAPE, "--objective", "score",
                "--domain", "zz=range:0:1",
            ]
        )
        assert code == 2
        assert "undeclared knob" in capsys.readouterr().err
