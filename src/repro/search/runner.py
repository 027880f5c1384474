"""Search execution: strategies x worker pool -> ``SEARCH_*.json``.

:func:`run_search` drives a strategy's ask/tell loop over a pool of
:class:`~repro.experiments.parallel.PersistentWorker` processes (one
:func:`~repro.search.worker.search_worker_main` loop each), multiplexed
with :func:`~repro.experiments.parallel.wait_any`.  A crashed worker is
respawned and its in-flight trial retried once; a trial that merely
*raises* is a failed trial, recorded with its error and never a winner.

Determinism is split structurally, not promised by discipline: the
artifact's top level — trial order, params, metrics, objectives,
fingerprints, best, frontier — depends only on the spec (strategies
draw from seeded streams; workers return identical payloads regardless
of scheduling because phased trials always run on a fork of a pristine
build).  Everything measured rather than derived — wall times,
fresh/forked build counts, crash retries, pool size —
lives under the single top-level ``"host"`` key, which ``repro search
--omit-host`` drops so CI can ``cmp`` two runs byte-for-byte.

Schema (version 1)::

    {
      "schema": 1,
      "kind": "search",
      "label": "nightly",
      "python": "3.12.3",
      "search": { ...SearchSpec.to_dict()... },
      "trials": [
        {
          "index": 0,
          "generation": 0,           # ask/tell batch number
          "params": {"blaster_gbps": 6.0},
          "metrics": {"fairness": 0.93, ...},   # sanitized (NaN -> "nan")
          "objective": 0.93,         # null when error is set
          "error": null,             # ObjectiveError / worker traceback
          "fingerprint": "3f2a...",  # sha256 over scenario+params+metrics
          "counters": {"published": 1234, "handled": 1200, "dropped": 0}
        }, ...
      ],
      "best": { ...the winning trial, same shape... },   # null if none
      "frontier": [ {"index": 0, "objective": 0.93}, ...],  # running best
      "truncated": false,            # strategy hit the budget early
      "host": { ... }                # measured, non-deterministic; optional
    }
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.parallel import (
    PersistentWorker,
    WorkerCrashed,
    default_workers,
    wait_any,
)
from repro.scenarios.spec import ScenarioSpec
from repro.search.objective import ObjectiveError, evaluate, sanitize_metrics
from repro.search.spec import SearchError, SearchSpec
from repro.search.strategies import Scored, best_scored, make_strategy
from repro.search.worker import run_trial, search_worker_main

SCHEMA_VERSION = 1

#: How often a trial whose *worker* crashed is re-run before giving up.
CRASH_RETRIES = 1


def trial_fingerprint(scenario: str, params: Dict[str, Any], metrics: Dict) -> str:
    """A stable hash of what a trial ran and what it measured.

    Computed over the canonical JSON of scenario name, parameters, and
    sanitized metrics — so an inline run and a service-submitted run of
    the same trial agree, and two artifacts can be diffed by fingerprint
    without caring about wall clocks.
    """
    blob = json.dumps(
        {"scenario": scenario, "params": params, "metrics": metrics},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Trial evaluation (parent side)
# ---------------------------------------------------------------------------
def _finish_trial(
    spec: SearchSpec,
    index: int,
    generation: int,
    params: Dict[str, Any],
    payload: Optional[Dict[str, Any]],
    error: Optional[str],
) -> Dict[str, Any]:
    """Fold a worker payload (or failure) into one artifact trial record."""
    trial: Dict[str, Any] = {
        "index": index,
        "generation": generation,
        "params": dict(sorted(params.items())),
        "metrics": None,
        "objective": None,
        "error": None,
        "fingerprint": None,
        "counters": None,
    }
    if error is not None:
        trial["error"] = error
        return trial
    assert payload is not None
    metrics = payload["metrics"]
    sanitized = sanitize_metrics(metrics)
    trial["metrics"] = sanitized
    trial["counters"] = dict(sorted(payload["counters"].items()))
    trial["fingerprint"] = trial_fingerprint(spec.scenario, trial["params"], sanitized)
    try:
        trial["objective"] = evaluate(spec.objective, metrics)
    except ObjectiveError as exc:
        trial["error"] = str(exc)
    return trial


class _Pool:
    """The worker pool: dispatch trials, collect replies, survive crashes."""

    def __init__(self, base: ScenarioSpec, size: int) -> None:
        self.base = base
        self.workers = [PersistentWorker(search_worker_main, base) for _ in range(size)]
        self.busy: Dict[int, Tuple[int, Dict[str, Any], int]] = {}
        self.crash_retries = 0

    def idle_slots(self) -> List[int]:
        return [i for i in range(len(self.workers)) if i not in self.busy]

    def dispatch(self, slot: int, index: int, params: Dict[str, Any], tries: int):
        self.busy[slot] = (index, params, tries)
        self.workers[slot].send(("trial", index, params))

    def collect(self) -> List[Tuple[int, Optional[Dict], Optional[str]]]:
        """Block for >=1 reply; returns ``(index, payload, error)`` rows.

        A crashed worker is replaced in its slot and the trial it held
        re-dispatched (up to :data:`CRASH_RETRIES` times) — beyond that
        the crash traceback becomes the trial's error.
        """
        results: List[Tuple[int, Optional[Dict], Optional[str]]] = []
        busy_slots = sorted(self.busy)
        ready = wait_any([self.workers[slot] for slot in busy_slots])
        ready_ids = {id(worker) for worker in ready}
        for slot in busy_slots:
            worker = self.workers[slot]
            if id(worker) not in ready_ids:
                continue
            index, params, tries = self.busy.pop(slot)
            try:
                reply = worker.recv()
            except WorkerCrashed as exc:
                worker.close()
                self.workers[slot] = PersistentWorker(search_worker_main, self.base)
                if tries < CRASH_RETRIES:
                    self.crash_retries += 1
                    self.dispatch(slot, index, params, tries + 1)
                else:
                    results.append((index, None, f"worker crashed: {exc}"))
                continue
            kind = reply[0]
            if kind == "trial-ok":
                results.append((reply[1], reply[2], None))
            elif kind == "trial-err":
                results.append((reply[1], None, reply[2]))
            else:  # pragma: no cover - protocol safety net
                results.append((index, None, f"unexpected reply {kind!r}"))
        return results

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


def _run_batch(
    spec: SearchSpec,
    base: ScenarioSpec,
    batch: List[Dict[str, Any]],
    start_index: int,
    generation: int,
    pool: Optional[_Pool],
    inline_cache,
    walls: List[float],
    sources: List[str],
) -> List[Dict[str, Any]]:
    """Evaluate one strategy batch; returns trial records in batch order."""
    raw: Dict[int, Tuple[Optional[Dict], Optional[str]]] = {}
    if pool is None:
        for offset, params in enumerate(batch):
            index = start_index + offset
            try:
                payload = run_trial(base, params, inline_cache)
            except Exception as exc:
                raw[index] = (None, f"{type(exc).__name__}: {exc}")
            else:
                raw[index] = (payload, None)
    else:
        pending = list(enumerate(batch))
        while pending or pool.busy:
            for slot in pool.idle_slots():
                if not pending:
                    break
                offset, params = pending.pop(0)
                pool.dispatch(slot, start_index + offset, params, 0)
            if pool.busy:
                for index, payload, error in pool.collect():
                    raw[index] = (payload, error)
    trials = []
    for offset, params in enumerate(batch):
        index = start_index + offset
        payload, error = raw[index]
        if payload is not None:
            walls.append(payload["wall_s"])
            sources.append(payload["source"])
        trials.append(_finish_trial(spec, index, generation, params, payload, error))
    return trials


def _pool_size(spec: SearchSpec, workers: Optional[int]) -> int:
    """How many worker processes to spawn (0 = run trials inline).

    Daemonic processes (the serve pool's workers) cannot spawn children,
    so a service-submitted search always degrades to the inline loop —
    which produces the identical artifact, just serially.
    """
    if multiprocessing.current_process().daemon:
        return 0
    if workers is None:
        workers = min(default_workers(), 4)
    if workers <= 1:
        return 0
    return min(workers, spec.budget)


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------
def run_search(
    spec: SearchSpec,
    workers: Optional[int] = None,
    host: bool = True,
) -> Dict[str, Any]:
    """Run one :class:`SearchSpec` to completion; returns the artifact.

    ``workers`` sizes the trial pool (``None`` = up to 4, bounded by the
    host; ``0``/``1`` = inline).  ``host=False`` omits the measured
    ``"host"`` section entirely, making the artifact a pure function of
    the spec — that is the form CI byte-compares.
    """
    spec.validate()
    from repro import scenarios

    base = scenarios.get(spec.scenario).with_params(**spec.fixed)
    strategy = make_strategy(spec)
    started = time.perf_counter()

    size = _pool_size(spec, workers)
    pool = _Pool(base, size) if size > 0 else None
    inline_cache: Any = None
    if pool is None:
        from collections import OrderedDict

        inline_cache = OrderedDict()

    trials: List[Dict[str, Any]] = []
    walls: List[float] = []
    sources: List[str] = []
    generation = 0
    try:
        while True:
            batch = strategy.ask()
            if not batch:
                break
            batch_trials = _run_batch(
                spec,
                base,
                batch,
                len(trials),
                generation,
                pool,
                inline_cache,
                walls,
                sources,
            )
            trials.extend(batch_trials)
            scored: List[Scored] = [
                (trial["params"], trial["objective"], trial["index"])
                for trial in batch_trials
            ]
            strategy.tell(scored)
            generation += 1
    finally:
        if pool is not None:
            pool.close()

    all_scored: List[Scored] = [
        (trial["params"], trial["objective"], trial["index"]) for trial in trials
    ]
    winner = best_scored(
        [entry for entry in all_scored if entry[1] is not None], spec.mode
    )
    best = trials[winner[2]] if winner is not None else None

    frontier: List[Dict[str, Any]] = []
    running: Optional[Scored] = None
    for entry in all_scored:
        if entry[1] is None:
            continue
        contender = best_scored(
            ([running] if running is not None else []) + [entry], spec.mode
        )
        if contender is not running:
            running = contender
            frontier.append({"index": entry[2], "objective": entry[1]})

    artifact: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "search",
        "label": spec.label,
        "python": sys.version.split()[0],
        "search": spec.to_dict(),
        "trials": trials,
        "best": best,
        "frontier": frontier,
        "truncated": bool(strategy.truncated),
    }
    if host:
        artifact["host"] = {
            "wall_s_total": time.perf_counter() - started,
            "wall_s_trials": walls,
            "fresh_builds": sources.count("fresh"),
            "forked": sources.count("forked"),
            "crash_retries": pool.crash_retries if pool is not None else 0,
            "workers": size,
        }
    return artifact


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------
def write_artifact(data: Dict[str, Any], path: str) -> None:
    """Write a search artifact as stable, strict, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_artifact(path: str) -> Dict[str, Any]:
    """Read an artifact written by :func:`write_artifact`."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA_VERSION or data.get("kind") != "search":
        raise SearchError(
            f"{path}: not a schema-{SCHEMA_VERSION} search artifact "
            f"(schema={data.get('schema')!r}, kind={data.get('kind')!r})"
        )
    return data


# ---------------------------------------------------------------------------
# Service entry point
# ---------------------------------------------------------------------------
def run_search_job(search: Dict[str, Any]) -> Dict[str, Any]:
    """The ``search/run`` scenario runner: a whole search as one job.

    ``search`` is a :meth:`SearchSpec.to_dict` payload (that is how a
    spec crosses the service wire).  Runs inline — service workers are
    daemonic and cannot spawn a pool — and returns the artifact without
    the ``host`` section, so a service-submitted search is comparable
    (same trials, same best fingerprint) to ``run_search`` in-process.
    """
    spec = SearchSpec.from_dict(search)
    return run_search(spec, workers=0, host=False)


def _register_scenarios() -> None:
    from repro import scenarios

    scenarios.register(
        ScenarioSpec(
            name="search/run",
            runner="repro.search.runner:run_search_job",
            params={"search": {}},
            tags=("search", "service"),
            summary="Run a declarative SearchSpec (grid/random/evolve) "
            "over a registered scenario and return the SEARCH artifact",
        )
    )


_register_scenarios()
