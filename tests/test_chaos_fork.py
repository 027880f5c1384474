"""Fork-amortized chaos grid: identical verdicts, shared builds.

The acceptance contract: a chaos cell run on a :func:`fork_scenario`
copy (one topology build per app/seed/arm, one in-memory fork per fault
plan) produces a verdict record **byte-identical** to the from-scratch
:func:`run_cell` path — fingerprints included — and forks of the same
base never contaminate each other.  Spreading a grid's runs over the
host's cores changes neither the records nor their order, a worker's
failure surfaces in the caller, and no worker outlives the grid.
"""

import json
import multiprocessing
import os

import pytest

from repro.experiments.parallel import PersistentWorker, WorkerCrashed
from repro.faults import chaos
from repro.faults.chaos import (
    fork_scenario,
    run_cell,
    run_forked_cells,
    run_forked_grid,
    run_grid,
    run_instance_on,
)
from repro.faults.scenarios import build_scenario


def _canon(record):
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("app_name", ["frr", "liveness"])
def test_forked_cell_matches_standalone(app_name):
    plans = ["linkflap", "crash"]
    forked = run_forked_cells(plans, [app_name], [1])
    standalone = [run_cell(plan, app_name, 1) for plan in plans]
    assert [_canon(r) for r in forked] == [_canon(r) for r in standalone]


def test_forked_grid_order_matches_run_grid(tmp_path):
    plans = ["linkflap", "stall"]
    apps = ["frr", "migration"]
    straight_path = tmp_path / "straight.jsonl"
    forked_path = tmp_path / "forked.jsonl"
    run_grid(plans, apps, [1], out_path=str(straight_path))
    run_grid(plans, apps, [1], out_path=str(forked_path), forked=True)
    assert forked_path.read_text() == straight_path.read_text()


def test_sibling_forks_are_isolated():
    base = build_scenario("frr", 1, flow_cache=True)
    first = run_instance_on(fork_scenario(base), "crash", 1)
    second = run_instance_on(fork_scenario(base), "crash", 1)
    # Same plan on two forks of one base: identical, not merely similar.
    assert _canon(first) == _canon(second)
    # The base itself never advanced — forks ran, the original did not.
    assert base.network.sim.now_ps == 0
    assert all(probe() == 0 for probe in base.probes.values())


def test_run_forked_grid_scenario_shape():
    result = run_forked_grid(plans=["linkflap"], apps=["frr"], seeds=[1])
    assert result["violations"] == 0
    assert result["summary"][-1].endswith("all invariants held")
    assert list(result["fingerprints"]) == ["linkflap/frr/1"]
    (fingerprint,) = result["fingerprints"].values()
    assert _canon(run_cell("linkflap", "frr", 1))  # standalone still runs
    assert run_cell("linkflap", "frr", 1)["fingerprint"] == fingerprint


# ----------------------------------------------------------------------
# Cells spread over the host's cores
# ----------------------------------------------------------------------
_PLANS = ["linkflap", "crash"]
_APPS = ["frr", "l3chain"]


def _count_workers(monkeypatch, workers):
    """Pin the split to ``workers`` processes; returns the list that
    records each worker the split starts."""
    started = []

    class CountingWorker(PersistentWorker):
        def __init__(self, *args):
            started.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(chaos, "default_workers", lambda: workers)
    monkeypatch.setattr(chaos, "PersistentWorker", CountingWorker)
    return started


@pytest.mark.parametrize("forked", [True, False])
def test_records_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, forked):
    outputs = []
    for workers in (1, 2, 3):
        started = _count_workers(monkeypatch, workers)
        if forked:
            records = run_forked_cells(_PLANS, _APPS, [1], fastpath_arm=True)
            outputs.append([_canon(record) for record in records])
        else:
            path = tmp_path / f"{workers}.jsonl"
            run_grid(_PLANS, _APPS, [1], out_path=str(path), fastpath_arm=True)
            outputs.append(path.read_text().splitlines())
        # One split per (app, seed) forked and per plan from scratch, each
        # starting every process but the parent's own.
        assert len(started) == 2 * (workers - 1)
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1] == outputs[2]
    cells = [(json.loads(line)["plan"], json.loads(line)["app"]) for line in outputs[0]]
    assert cells == [(plan, app) for plan in _PLANS for app in _APPS]


def _raise_in_worker(parent_pid, exit_instead):
    real = chaos.run_instance_on

    def run(scenario, plan_name, seed):
        if os.getpid() != parent_pid:
            if exit_instead:
                os._exit(3)
            raise RuntimeError("injected worker failure")
        return real(scenario, plan_name, seed)

    return run


@pytest.mark.parametrize("exit_instead", [False, True])
@pytest.mark.parametrize("workers", [2, 3])
def test_a_failing_worker_surfaces_and_leaves_no_child(
    monkeypatch, workers, exit_instead
):
    started = _count_workers(monkeypatch, workers)
    monkeypatch.setattr(
        chaos, "run_instance_on", _raise_in_worker(os.getpid(), exit_instead)
    )
    expected = "exitcode=3" if exit_instead else "injected worker failure"
    with pytest.raises(WorkerCrashed, match=expected):
        run_forked_cells(["linkflap"], ["frr"], [1], fastpath_arm=True)
    assert len(started) == workers - 1
    assert multiprocessing.active_children() == []


def _grid_in_worker(conn, kwargs):
    conn.send(run_forked_grid(**kwargs))


def test_forked_grid_in_a_pool_worker_runs_serially(monkeypatch):
    kwargs = {"plans": _PLANS, "apps": ["frr"], "seeds": [1]}
    inline = run_forked_grid(**kwargs)

    class Refused(PersistentWorker):
        def __init__(self, *args):
            raise AssertionError("a daemonic worker started a child")

    # A service or search pool worker is daemonic: the grid it runs must
    # not try to split, whatever the host's core count.
    monkeypatch.setattr(chaos, "default_workers", lambda: 3)
    monkeypatch.setattr(chaos, "PersistentWorker", Refused)
    with PersistentWorker(_grid_in_worker, kwargs) as worker:
        in_worker = worker.recv()
    assert in_worker["fingerprints"] == inline["fingerprints"]
    assert in_worker["violations"] == inline["violations"] == 0
