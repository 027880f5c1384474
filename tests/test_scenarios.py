"""The scenario registry: the single construction path for everything.

Every experiment, chaos cell, and shard fabric registers a
:class:`ScenarioSpec`; the CLI and the job service build exclusively
through the registry.  These tests pin the registry's contracts:
validation at declaration, admission-grade override checking, pickling
(specs must cross worker-process pipes), and catalog coverage — every
``experiments/*_exp.py`` module contributes at least one spec.
"""

import pickle

import pytest

from repro import scenarios
from repro.scenarios import (
    SCENARIO_MODULES,
    ScenarioError,
    ScenarioSpec,
    UnknownScenario,
    result_rows,
)


def test_load_all_covers_every_experiment_module():
    scenarios.load_all()
    names = scenarios.names()
    assert len(names) == len(set(names))
    # Every experiment module registered at least one scenario.
    registered_modules = set()
    for spec in scenarios.specs():
        entry = spec.runner or spec.builder
        registered_modules.add(entry.partition(":")[0])
    for module in SCENARIO_MODULES:
        assert module in registered_modules, f"{module} registered nothing"


def test_catalog_names_are_stable_identifiers():
    expected_somewhere = [
        "microburst/event-driven",
        "table2/rows",
        "figures/sume",
        "chaos/frr",
        "chaos/forked-grid",
        "shard/fattree-k4",
    ]
    names = scenarios.names()
    for name in expected_somewhere:
        assert name in names
    assert not [name for name in names if name.startswith("bench/")]


def test_spec_validation():
    with pytest.raises(ScenarioError, match="non-empty"):
        ScenarioSpec(name="", runner="a.b:c")
    with pytest.raises(ScenarioError, match="either runner or builder"):
        ScenarioSpec(name="x")
    with pytest.raises(ScenarioError, match="either runner or builder"):
        ScenarioSpec(name="x", runner="a.b:c", builder="a.b:d", finisher="a.b:e")
    with pytest.raises(ScenarioError, match="both builder and finisher"):
        ScenarioSpec(name="x", builder="a.b:c")


def test_unknown_name_lists_the_catalog():
    with pytest.raises(UnknownScenario) as excinfo:
        scenarios.get("definitely/not/registered")
    message = str(excinfo.value)
    assert "registered scenarios" in message
    assert "microburst/event-driven" in message
    assert "definitely/not/registered" in message
    # Tag-scoped lookups list only that tag's names.
    with pytest.raises(UnknownScenario) as excinfo:
        scenarios.get("nope", tag="source")
    assert excinfo.value.registered == scenarios.names(tag="source")
    assert "table2/rows" not in str(excinfo.value)


def test_with_params_rejects_undeclared_overrides():
    spec = scenarios.get("microburst/event-driven")
    tweaked = spec.with_params(duration_ps=123)
    assert tweaked.params["duration_ps"] == 123
    assert spec.params["duration_ps"] != 123  # original untouched
    with pytest.raises(ScenarioError, match="unknown override"):
        spec.with_params(not_a_knob=1)


def test_register_conflict_and_idempotence():
    spec = ScenarioSpec(
        name="test/registry-conflict", runner="repro.resources:table3_rows"
    )
    scenarios.register(spec)
    scenarios.register(spec)  # identical re-register: no-op
    with pytest.raises(ScenarioError, match="already registered"):
        scenarios.register(
            ScenarioSpec(
                name="test/registry-conflict",
                runner="repro.resources:table3_rows",
                params={"different": True},
            )
        )


def test_specs_pickle_and_describe():
    for spec in scenarios.specs():
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        description = spec.describe()
        assert description["name"] == spec.name
        assert isinstance(description["phased"], bool)


def test_bad_entry_points_fail_loudly():
    with pytest.raises(ScenarioError, match="not of the form"):
        ScenarioSpec(name="x", runner="no-colon").run()
    with pytest.raises(ScenarioError, match="no attribute"):
        ScenarioSpec(name="x", runner="repro.resources:missing_fn").run()
    with pytest.raises(ScenarioError, match="not callable"):
        ScenarioSpec(name="x", runner="repro.resources:__name__").run()


def test_phased_run_equals_build_plus_finish():
    spec = scenarios.get("microburst/event-driven").with_params(
        duration_ps=2_000_000_000
    )
    assert spec.is_phased
    setup = spec.build()
    assert hasattr(setup, "network") and hasattr(setup, "duration_ps")
    result = spec.finish(setup)
    direct = spec.run()
    assert result.summary_row() == direct.summary_row()
    single = scenarios.get("table2/rows")
    with pytest.raises(ScenarioError, match="single-shot"):
        single.build()


def test_result_rows_normalizes_known_shapes():
    class WithRows:
        def summary_rows(self):
            return ["a", "b"]

    class WithRow:
        def summary_row(self):
            return "only"

    assert result_rows(None) == {}
    assert result_rows(WithRows()) == {"result": ["a", "b"]}
    assert result_rows(WithRow()) == {"result": ["only"]}
    assert result_rows([WithRow(), WithRow()]) == {"result": ["only", "only"]}
    assert result_rows({"block": ["x", "y"]}) == {"block": ["x", "y"]}
    mixed = result_rows({"n": 3})
    assert mixed == {"n": ["3"]}


def test_run_by_name_with_override():
    rows = scenarios.run("table2/rows")
    assert rows and all(hasattr(row, "summary_row") for row in rows)
