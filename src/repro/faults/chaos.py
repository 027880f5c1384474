"""The chaos grid: plan x app x seed, with verdicts.

Each grid cell runs its scenario **twice** — flow cache on, then off —
with the same seed; the two behavior fingerprints must match exactly
(the cache may only elide work, never change behavior, even mid-fault).
With ``compile_arm`` a **third** arm runs the compiled pipelines
(:mod:`repro.pisa.compile`) against an interpreter-pinned cache-off
reference, extending the same exactness contract to compiled walks.
With ``fastpath_arm`` another arm runs the flow fastpath
(:mod:`repro.pisa.fastpath`) against a fastpath-pinned-off cache-on
reference: fused multi-hop deliveries — including windows a fault
interrupts mid-flight, which disruption-time materialization hands
back to the per-hop machinery — must fingerprint identically.
The cache-on run carries the invariant monitors; the resulting verdict
record is one JSON object with sorted keys, so the JSONL report is
byte-identical across replays of the same grid and seed.  The runs are
independent, so a grid spreads them over the host's cores; the records
and their order do not depend on how many cores ran them.

The forked grid runs each *distinct* arm once.  An arm can differ from
another only where an accelerator acts, so an arm whose built scenario
has the :meth:`~repro.faults.scenarios.Scenario.accelerator_signature`
of an earlier arm's reuses that arm's run.  Today no chaos app loads a
program with a ``pipeline_spec``, so the compiled arm reuses the
cache-off run; the SUME apps (``frr``, ``hula``, ``liveness``,
``migration``) never fuse, so their fastpath arm reuses the cache-on
run; and ``liveness`` parks its flow caches under shared registers, so
all its arms are one run.  Only ``l3chain`` runs its fastpath arm.
:func:`run_cell` and the unforked :func:`run_grid` share nothing: they
are the from-scratch reference the forked grid must match.

Exit-code contract (``repro chaos``): nonzero iff any record carries a
violation.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.experiments.parallel import PersistentWorker, default_workers
from repro.faults.injector import FaultInjector
from repro.faults.monitors import (
    FlowCacheCoherenceMonitor,
    PacketConservationMonitor,
    ReconvergenceMonitor,
)
from repro.faults.plan import BUILTIN_PLANS, get_plan
from repro.faults.scenarios import SCENARIOS, Scenario, build_scenario
from repro.obs.faultlog import FaultLog
from repro.sim.rng import SeededRng

#: Grid axes in their canonical (reported) order.
PLAN_NAMES: Tuple[str, ...] = tuple(sorted(BUILTIN_PLANS))
APP_NAMES: Tuple[str, ...] = tuple(sorted(SCENARIOS))

T = TypeVar("T")
R = TypeVar("R")


def fork_scenario(scenario: Scenario) -> Scenario:
    """An independent copy of a freshly built scenario.

    :meth:`Simulator.fork` deep-copies the kernel and the scenario graph
    in one pickle pass, so the copy's probes, generators, and pending
    events all point into the copy.  Forking once per grid cell turns
    the O(build x plans) chaos grid into O(build + plans x fork): each
    (app, seed, arm) is built once and every fault plan runs against its
    own fork.
    """
    _sim, forked = scenario.network.sim.fork(state=scenario)
    return forked


def run_instance_on(scenario: Scenario, plan_name: str, seed: int) -> Dict[str, object]:
    """One monitored run of an already-built (possibly forked) scenario.

    The injector, rng, and monitors are created *here*, after any fork
    point, in the exact order the standalone path creates them — so a
    forked cell schedules the same events with the same seqnos and its
    fingerprint is byte-identical to a from-scratch build.
    """
    plan = get_plan(plan_name)
    rng = SeededRng(seed, f"chaos/{plan_name}/{scenario.name}")
    log = FaultLog()
    injector = FaultInjector(scenario, plan, rng, log=log)
    conservation = PacketConservationMonitor(scenario.network)
    reconvergence = ReconvergenceMonitor(scenario.network.sim, scenario.sink)
    coherence = FlowCacheCoherenceMonitor(scenario.caches())

    injector.arm()
    scenario.network.run(until_ps=scenario.duration_ps)
    # Settle fused in-flight windows at the cutoff: materialization
    # retro-applies exactly the hops in the virtual past, so counters
    # reflect the same partial progress the per-hop arms show.
    for _name, switch in sorted(scenario.network.switches.items()):
        disrupt = getattr(switch, "fastpath_disrupt", None)
        if disrupt is not None:
            disrupt()

    violations: List[str] = []
    violations.extend(conservation.check())
    churned = "control_churn" in plan.kinds()
    violations.extend(coherence.check(churned))

    return {
        "violations": violations,
        "fastpath": scenario.fastpath_totals(),
        "fingerprint": scenario.fingerprint(reconvergence.arrivals),
        "delivered": len(reconvergence.arrivals),
        "faults": log.count(),
        "fault_kinds": log.kinds(),
        "last_fault_ps": log.last_time_ps(),
        "reconvergence_ps": reconvergence.reconvergence_ps(log.last_time_ps()),
        "max_gap_ps": reconvergence.max_gap_ps(),
        "cache": coherence.totals(),
        "conservation": conservation.totals(),
        "control_ops": scenario.control.operations_completed,
        "table_updates": scenario.control.table_updates,
    }


def run_instance(
    plan_name: str,
    app_name: str,
    seed: int,
    flow_cache: bool,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Dict[str, object]:
    """Build one scenario from scratch and run it monitored."""
    scenario = build_scenario(
        app_name, seed, flow_cache=flow_cache, compile=compile, fastpath=fastpath
    )
    return run_instance_on(scenario, plan_name, seed)


def _divergence(label: str, a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """One violation naming the fingerprint keys two arms disagree on."""
    fp_a, fp_b = a["fingerprint"], b["fingerprint"]
    if fp_a == fp_b:
        return []
    diverged = sorted(
        key for key in set(fp_a) | set(fp_b) if fp_a.get(key) != fp_b.get(key)
    )
    return [f"{label}-divergence: runs disagree on " + ", ".join(diverged)]


def _cell_record(
    plan_name: str,
    app_name: str,
    seed: int,
    on: Dict[str, object],
    off: Dict[str, object],
    compiled: Optional[Dict[str, object]] = None,
    fastpath: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one verdict record from its per-arm instance results.

    Shared by the from-scratch (:func:`run_cell`, :func:`run_grid`) and
    fork-amortized (:func:`run_forked_cells`) paths, so all produce
    byte-identical records for the same cell.
    """
    violations = list(on["violations"])
    violations.extend(f"cache-off:{message}" for message in off["violations"])
    violations.extend(_divergence("flowcache", on, off))
    arms = 2
    if compiled is not None:
        violations.extend(f"compiled:{message}" for message in compiled["violations"])
        violations.extend(_divergence("compile", compiled, off))
        arms = 3
    if fastpath is not None:
        violations.extend(f"fastpath:{message}" for message in fastpath["violations"])
        violations.extend(_divergence("fastpath", fastpath, on))
        arms += 1

    fingerprint_crc = zlib.crc32(repr(sorted(on["fingerprint"].items())).encode())
    return {
        "plan": plan_name,
        "app": app_name,
        "seed": seed,
        "arms": arms,
        "ok": not violations,
        "violations": violations,
        "delivered": on["delivered"],
        "faults": on["faults"],
        "fault_kinds": on["fault_kinds"],
        "reconvergence_ps": on["reconvergence_ps"],
        "max_gap_ps": on["max_gap_ps"],
        "fingerprint": f"{fingerprint_crc:08x}",
        "cache": on["cache"],
        "conservation": on["conservation"],
        "table_updates": on["table_updates"],
        "fastpath": (fastpath if fastpath is not None else on)["fastpath"],
    }


def _arms(compile_arm: bool, fastpath_arm: bool) -> Dict[str, Dict[str, object]]:
    """A cell's arms in run order, each with its :func:`build_scenario` knobs.

    The names are :func:`_cell_record`'s keyword arguments.
    """
    arms: Dict[str, Dict[str, object]] = {
        "on": {"flow_cache": True, "fastpath": False if fastpath_arm else None},
        "off": {"flow_cache": False, "compile": False if compile_arm else None},
    }
    if compile_arm:
        arms["compiled"] = {"flow_cache": False, "compile": True}
    if fastpath_arm:
        arms["fastpath"] = {"flow_cache": True, "fastpath": True}
    return arms


def _share_count(runs: int) -> int:
    """How many processes share ``runs`` independent runs (1 = serial).

    One per core, never more than there are runs.  Serial inside a
    daemonic process — a service or search pool worker, which may start
    no children and already shares the cores with the pool's other
    workers — and wherever fork is unavailable or another thread could
    hold a lock across it.
    """
    import multiprocessing  # on first use: importing chaos stays cheap

    if (
        multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(default_workers(), runs))


def _run_share(conn, run: Callable[[T], R], share: Sequence[T]) -> None:
    """Worker side of :func:`_spread`: one reply with the share's results."""
    try:
        conn.send([run(task) for task in share])
    except Exception:
        import traceback

        conn.send(("error", traceback.format_exc()))


def _spread(tasks: Sequence[T], run: Callable[[T], R]) -> List[R]:
    """``[run(task) for task in tasks]``, spread over the host's cores.

    Share ``i`` of ``n`` is ``tasks[i::n]``.  The parent runs share 0;
    each other share runs in a forked :class:`PersistentWorker`, which
    inherits ``run`` and everything it closes over (built scenarios
    included), so only the results cross a pipe.  Results come back in
    task order whatever ``n`` is.  A worker that raises or dies raises
    :class:`~repro.experiments.parallel.WorkerCrashed` here, and every
    worker has exited by the time this returns or raises.
    """
    shares = _share_count(len(tasks))
    if shares == 1:
        return [run(task) for task in tasks]
    results: List[R] = [None] * len(tasks)
    workers: List[PersistentWorker] = []
    try:
        for index in range(1, shares):
            workers.append(PersistentWorker(_run_share, run, tasks[index::shares]))
        results[0::shares] = [run(task) for task in tasks[0::shares]]
        for index, worker in enumerate(workers, 1):
            results[index::shares] = worker.recv()
    finally:
        for worker in workers:
            worker.close()
    return results


def run_cell(
    plan_name: str,
    app_name: str,
    seed: int,
    compile_arm: bool = False,
    fastpath_arm: bool = False,
) -> Dict[str, object]:
    """One verdict record: cache-on vs cache-off, plus optional arms.

    With ``compile_arm`` the cache-off run is pinned to the interpreter
    (the reference path) and a third arm runs compiled with the cache
    off; its fingerprint must match the interpreted reference exactly
    (``compile-divergence`` otherwise), covering compiled execution with
    the same invariant monitors.

    With ``fastpath_arm`` the cache-on run pins the flow fastpath off
    (the per-hop reference) and another arm runs with the fastpath on;
    any mismatch — including one caused by a fault interrupting a fused
    window — is a ``fastpath-divergence`` violation.

    Every arm is built and run from scratch, even where two arms'
    accelerator signatures match: this is the unshared reference that
    :func:`run_forked_cells` records are checked against.
    """
    results = {
        arm: run_instance(plan_name, app_name, seed, **knobs)
        for arm, knobs in _arms(compile_arm, fastpath_arm).items()
    }
    return _cell_record(plan_name, app_name, seed, **results)


def _distinct_bases(
    app_name: str, seed: int, arms: Dict[str, Dict[str, object]]
) -> Tuple[Dict[str, Scenario], Dict[str, str]]:
    """Build every arm's base; keep one per accelerator signature.

    Returns the bases to run, keyed by the first arm with each
    :meth:`~repro.faults.scenarios.Scenario.accelerator_signature`, and
    for every arm the arm whose run it reuses (itself if it runs).
    """
    bases: Dict[str, Scenario] = {}
    first: Dict[tuple, str] = {}
    runs_as: Dict[str, str] = {}
    for arm, knobs in arms.items():
        base = build_scenario(app_name, seed, **knobs)
        runs_as[arm] = first.setdefault(base.accelerator_signature(), arm)
        if runs_as[arm] == arm:
            bases[arm] = base
    return bases, runs_as


def run_forked_cells(
    plans: Sequence[str],
    apps: Sequence[str],
    seeds: Iterable[int],
    compile_arm: bool = False,
    fastpath_arm: bool = False,
) -> List[Dict[str, object]]:
    """The grid with builds amortized by :func:`fork_scenario`.

    Each (app, seed, arm) scenario is built **once** at t=0 and forked
    per fault plan, so the per-cell cost is a pickle round-trip rather
    than a topology build.  Because the injector and monitors are
    created post-fork in the standalone order (see
    :func:`run_instance_on`), each cell's record — fingerprint included
    — is byte-identical to :func:`run_cell` for the same cell.

    An arm whose base has the accelerator signature of an earlier arm's
    base is not run: its result is that arm's, so each distinct run
    happens once per (plan, app, seed) and the record is assembled
    exactly as from separate runs.

    An (app, seed)'s distinct (plan, arm) runs are independent, so they
    are spread over the host's cores (:func:`_spread`) once its bases
    are built; the records do not depend on how many cores ran them.
    Records come back in :func:`run_grid` order (plan, app, seed) so the
    two paths emit interchangeable JSONL.
    """
    arms = _arms(compile_arm, fastpath_arm)
    by_cell: Dict[Tuple[str, str, int], Dict[str, object]] = {}
    seed_list = list(seeds)
    for app_name in apps:
        for seed in seed_list:
            bases, runs_as = _distinct_bases(app_name, seed, arms)
            runs = [(plan_name, arm) for plan_name in plans for arm in bases]
            results = _spread(
                runs,
                lambda run: run_instance_on(
                    fork_scenario(bases[run[1]]), run[0], seed
                ),
            )
            by_run = dict(zip(runs, results))
            for plan_name in plans:
                cell = {arm: by_run[(plan_name, runs_as[arm])] for arm in arms}
                by_cell[(plan_name, app_name, seed)] = _cell_record(
                    plan_name, app_name, seed, **cell
                )
    return [
        by_cell[(plan_name, app_name, seed)]
        for plan_name in plans
        for app_name in apps
        for seed in seed_list
    ]


def run_grid(
    plans: Sequence[str],
    apps: Sequence[str],
    seeds: Iterable[int],
    out_path: Optional[str] = None,
    compile_arm: bool = False,
    forked: bool = False,
    fastpath_arm: bool = False,
) -> List[Dict[str, object]]:
    """Run every (plan, app, seed) cell; optionally stream JSONL to disk.

    ``forked`` switches to the fork-amortized path — one build per
    (app, seed, arm), one :meth:`Simulator.fork` per cell — with
    identical records.  Without it, each plan's (app, seed, arm) runs
    are spread over the host's cores (:func:`_spread`) and the plan's
    records are written, in canonical order, before the next plan runs;
    every arm runs, shared signature or not, so the unforked grid is the
    from-scratch reference for the forked one.
    """
    arms = _arms(compile_arm, fastpath_arm)
    seed_list = list(seeds)
    records: List[Dict[str, object]] = []
    out = open(out_path, "w", encoding="utf-8") if out_path else None
    try:
        if forked:
            records.extend(
                run_forked_cells(
                    plans,
                    apps,
                    seed_list,
                    compile_arm=compile_arm,
                    fastpath_arm=fastpath_arm,
                )
            )
            if out is not None:
                for record in records:
                    out.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            cells = [(app_name, seed) for app_name in apps for seed in seed_list]
            runs = [(app_name, seed, arm) for app_name, seed in cells for arm in arms]
            for plan_name in plans:
                results = iter(
                    _spread(
                        runs,
                        lambda run: run_instance(
                            plan_name, run[0], run[1], **arms[run[2]]
                        ),
                    )
                )
                for app_name, seed in cells:
                    cell = {arm: next(results) for arm in arms}
                    record = _cell_record(plan_name, app_name, seed, **cell)
                    records.append(record)
                    if out is not None:
                        out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if out is not None:
            out.close()
    return records


def violation_count(records: List[Dict[str, object]]) -> int:
    """Total violations across a grid's verdict records."""
    return sum(len(record["violations"]) for record in records)


def summary_rows(records: List[Dict[str, object]]) -> List[str]:
    """Printable per-(plan, app) summary of a grid run."""
    rows = [
        f"{'plan':<12}{'app':<11}{'cells':>6}{'viol':>6}{'delivered':>11}"
        f"{'faults':>8}{'hits':>8}{'inval':>7}"
    ]
    by_pair: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    for record in records:
        by_pair.setdefault((str(record["plan"]), str(record["app"])), []).append(record)
    for (plan_name, app_name), cell_records in sorted(by_pair.items()):
        violations = sum(len(r["violations"]) for r in cell_records)
        delivered = sum(int(r["delivered"]) for r in cell_records)
        faults = sum(int(r["faults"]) for r in cell_records)
        hits = sum(int(r["cache"]["hits"]) for r in cell_records)
        invalidations = sum(int(r["cache"]["invalidations"]) for r in cell_records)
        rows.append(
            f"{plan_name:<12}{app_name:<11}{len(cell_records):>6}{violations:>6}"
            f"{delivered:>11}{faults:>8}{hits:>8}{invalidations:>7}"
        )
    total_violations = violation_count(records)
    rows.append(
        f"{len(records)} cell(s), {total_violations} violation(s)"
        + ("" if total_violations else " — all invariants held")
    )
    return rows


def run_forked_grid(
    plans: Sequence[str] = ("burst", "crash", "linkflap", "stall", "storm"),
    apps: Sequence[str] = ("frr", "migration"),
    seeds: Sequence[int] = (1,),
    fastpath_arm: bool = False,
) -> Dict[str, object]:
    """The fork-amortized grid as a registered scenario runner.

    The default knobs give the ten-variant grid (5 plans x 2 apps x 1
    seed) whose fingerprints must match standalone ``repro chaos`` runs
    of the same cells.  Returns a JSON-able record: summary rows, the
    violation total, and the per-cell fingerprints.
    """
    records = run_forked_cells(
        list(plans), list(apps), list(seeds), fastpath_arm=fastpath_arm
    )
    return {
        "summary": summary_rows(records),
        "violations": violation_count(records),
        "fingerprints": {
            f"{r['plan']}/{r['app']}/{r['seed']}": r["fingerprint"] for r in records
        },
    }


def _register_scenarios() -> None:
    from repro.scenarios import ScenarioSpec, register

    for app in APP_NAMES:
        register(
            ScenarioSpec(
                name=f"chaos/{app}",
                runner="repro.faults.chaos:run_cell",
                params={
                    "plan_name": "linkflap",
                    "app_name": app,
                    "seed": 1,
                    "fastpath_arm": False,
                },
                app=app,
                fault_plan="linkflap",
                seed=1,
                tags=("chaos",),
                summary=f"One chaos cell: {app} under a fault plan, "
                "cache-on vs cache-off arms",
            )
        )
    register(
        ScenarioSpec(
            name="chaos/forked-grid",
            runner="repro.faults.chaos:run_forked_grid",
            params={
                "plans": ["burst", "crash", "linkflap", "stall", "storm"],
                "apps": ["frr", "migration"],
                "seeds": [1],
                "fastpath_arm": False,
            },
            seed=1,
            tags=("chaos", "forked"),
            summary="Ten-cell chaos grid amortized by Simulator.fork "
            "(one build per app/arm, one fork per cell)",
        )
    )


_register_scenarios()
