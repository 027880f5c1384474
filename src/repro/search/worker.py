"""The per-trial execution loop run inside a `PersistentWorker`.

One worker process serves many trials over its duplex pipe: the base
:class:`ScenarioSpec` arrives once as a spawn argument, then
``("trial", index, params)`` requests come in, ``("trial-ok", index,
payload)`` or ``("trial-err", index, traceback)`` replies go out, and
``("stop",)`` ends the loop.  The payload carries *raw* metrics
(NaN and all — the parent decides what an invalid objective means),
per-trial event counters, and how the trial was built.

Fork amortization: a phased scenario's build phase depends only on its
parameters, so the worker keeps a small cache of pristine setups keyed
by the canonical parameter JSON and runs every finisher on a
``Simulator.fork`` of the cached setup (the chaos grid proved fork-
then-run byte-identical to fresh-build-then-run).  Crucially the
finisher *always* runs on a fork — first build included — so the
per-trial counters never depend on whether the cache hit, and the
artifact stays deterministic under any trial-to-worker schedule.
"""

from __future__ import annotations

import json
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict

from repro.obs import EventCounters, observing
from repro.obs.counters import bus_totals
from repro.scenarios.spec import ScenarioSpec
from repro.search.objective import extract_metrics

#: Pristine setups a worker keeps alive (per distinct parameter set).
SETUP_CACHE_SIZE = 4


def params_key(params: Dict[str, Any]) -> str:
    """The canonical cache key for one trial's parameter assignment."""
    return json.dumps(params, sort_keys=True, default=repr)


def run_trial(
    base: ScenarioSpec,
    params: Dict[str, Any],
    cache: "OrderedDict[str, Any]",
) -> Dict[str, Any]:
    """Execute one trial and return its raw payload.

    Phased scenarios build (or fetch) a pristine setup, fork it, and run
    the finisher on the fork, counting its events from the fork's bus
    counters; single-shot scenarios run under fresh
    :class:`EventCounters`.  ``source`` records which path produced the
    result (``"run"`` / ``"fresh"`` / ``"forked"``) — it lands under the
    artifact's ``host`` section because it depends on worker scheduling.
    """
    spec = base.with_params(**params)
    started = time.perf_counter()
    if spec.is_phased:
        key = params_key(params)
        if key in cache:
            pristine = cache[key]
            cache.move_to_end(key)
            source = "forked"
        else:
            pristine = spec.build()
            cache[key] = pristine
            while len(cache) > SETUP_CACHE_SIZE:
                cache.popitem(last=False)
            source = "fresh"
        # Always fork — even right after a fresh build — so the trial's
        # counters are identical whether or not the cache hit.
        sim, setup = pristine.network.sim.fork(state=pristine)
        # observing() reaches only buses created inside its block, and
        # the fork's were unpickled before it: count the finisher's
        # events as deltas of the fork's own bus counters instead.
        before = bus_totals(setup.network)
        result = spec.finish(setup)
        after = bus_totals(setup.network)
        totals = {name: after[name] - before[name] for name in after}
        totals["events_executed"] = sim.events_executed
    else:
        counters = EventCounters()
        with observing(counters):
            result = spec.run()
        totals = counters.totals()
        source = "run"
    wall_s = time.perf_counter() - started
    return {
        "metrics": extract_metrics(result),
        "counters": totals,
        "source": source,
        "wall_s": wall_s,
    }


def search_worker_main(conn, base: ScenarioSpec) -> None:
    """Pipe loop: serve trial requests until told to stop.

    Module-level and picklable so :class:`~repro.experiments.parallel.
    PersistentWorker` can spawn it on platforms without ``fork``.  Trial
    exceptions become ``("trial-err", ...)`` replies — a failed trial,
    not a crashed worker — so one bad parameter point cannot take the
    whole search down.
    """
    cache: "OrderedDict[str, Any]" = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "stop":
            return
        if message[0] == "trial":
            _kind, index, params = message
            try:
                payload = run_trial(base, params, cache)
            except Exception:
                conn.send(("trial-err", index, traceback.format_exc()))
            else:
                conn.send(("trial-ok", index, payload))
