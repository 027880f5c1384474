"""The worker side of the job service: one scenario at a time.

``worker_main`` is the module-level entry point a
:class:`~repro.experiments.parallel.PersistentWorker` process runs.  It
receives :class:`~repro.scenarios.spec.ScenarioSpec` objects over the
duplex pipe and executes them:

* **phased** specs run in telemetry windows — build the setup, advance
  the simulation a window at a time, push a snapshot after each, and
  poll the pipe for a cancel between windows.  The snapshot's event
  totals are read from the switches' own bus counters
  (:func:`~repro.obs.counters.bus_totals`), as a phased search trial
  reads them: no observer is attached, so the job runs the same
  unobserved event path as a plain run.  A cancelled phased job is
  **preempted**: the whole simulation (kernel + setup, whose buses carry
  the counts so far) is checkpointed to bytes
  (:func:`~repro.sim.checkpoint.dumps_checkpoint`) and shipped back, so
  ``resume`` continues exactly where the windowed run stopped, counts
  included — same format as an on-disk checkpoint.
* **single-shot** specs run to completion in one call under an
  :class:`~repro.obs.counters.EventCounters` observer; telemetry
  arrives once, with the result.  They keep the observer: without one,
  a fabric scenario's flows would fuse, and the fused fabric path still
  diverges from the per-hop reference, so the job's result would change.

Job exceptions are *jobs failing*, not workers crashing: the worker
catches them and replies ``("failed", job_id, traceback)``.  The
``("error", ...)`` shape — which ``PersistentWorker.recv`` converts to
:class:`~repro.experiments.parallel.WorkerCrashed` — is reserved for
the process actually dying, which is what the service's respawn-and-
retry logic keys on.
"""

from __future__ import annotations

import json
import traceback
from typing import Any, Dict, Optional, Tuple

from repro.obs import EventCounters, observing
from repro.obs.counters import bus_totals
from repro.scenarios.spec import ScenarioSpec, result_rows
from repro.sim.checkpoint import dumps_checkpoint, loads_checkpoint

#: Telemetry windows a phased job is sliced into (also the cancel
#: polling granularity).
DEFAULT_WINDOWS = 8


def snapshot(setup: Any) -> Dict[str, int]:
    """One JSON-able telemetry record for the current window boundary."""
    sim = setup.network.sim
    duration = max(1, int(setup.duration_ps))
    return {
        "now_ps": sim.now_ps,
        "duration_ps": duration,
        "progress": min(1.0, round(sim.now_ps / duration, 6)),
        "events_executed": sim.events_executed,
        "pending_events": sim.pending_events,
        **bus_totals(setup.network),
    }


def _result_payload(result: Any, final: Dict[str, int]) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"rows": result_rows(result), "telemetry": final}
    try:
        json.dumps(result)
    except (TypeError, ValueError):
        pass  # non-JSON results still ship as printable rows
    else:
        payload["value"] = result
    return payload


def _cancel_requested(conn, job_id: str) -> bool:
    """Drain pending pipe messages; True if this job was cancelled."""
    cancelled = False
    while conn.poll(0):
        message = conn.recv()
        if (
            isinstance(message, tuple)
            and message
            and message[0] == "cancel"
            and message[1] == job_id
        ):
            cancelled = True
    return cancelled


def _run_windows(
    conn,
    job_id: str,
    spec: ScenarioSpec,
    setup: Any,
    windows: int,
) -> Optional[Tuple[str, ...]]:
    """Advance a phased setup window by window; returns the final reply."""
    network = setup.network
    sim = network.sim
    duration_ps = int(setup.duration_ps)
    start_ps = sim.now_ps
    span = max(0, duration_ps - start_ps)
    windows = max(1, int(windows))
    for index in range(1, windows + 1):
        network.run(until_ps=start_ps + span * index // windows)
        conn.send(("telemetry", job_id, snapshot(setup)))
        if _cancel_requested(conn, job_id):
            blob = dumps_checkpoint(
                sim,
                state={"spec": spec, "setup": setup},
                label=f"preempt:{job_id}",
            )
            return ("preempted", job_id, blob, snapshot(setup))
    result = spec.finish(setup)
    return ("done", job_id, _result_payload(result, snapshot(setup)))


def _run_job(conn, job_id: str, spec: ScenarioSpec, windows: int) -> Tuple:
    if spec.is_phased:
        return _run_windows(conn, job_id, spec, spec.build(), windows)
    counters = EventCounters()
    with observing(counters):
        result = spec.run()
    final = counters.totals()
    conn.send(("telemetry", job_id, final))
    return ("done", job_id, _result_payload(result, final))


def _resume_job(conn, job_id: str, blob: bytes, windows: int) -> Tuple:
    _sim, state, _header = loads_checkpoint(blob)
    return _run_windows(conn, job_id, state["spec"], state["setup"], windows)


def worker_main(conn, windows: int = DEFAULT_WINDOWS) -> None:
    """Pipe loop: run/resume jobs until told to stop or the pipe closes."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, tuple) or not message:
            continue
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "run":
                _kind, job_id, spec = message
                reply = _run_job(conn, job_id, spec, windows)
            elif kind == "resume":
                _kind, job_id, blob = message
                reply = _resume_job(conn, job_id, blob, windows)
            elif kind == "cancel":
                # A cancel for a job that already finished; nothing to do.
                continue
            else:
                reply = ("failed", str(message[1:2]), f"unknown request {kind!r}")
        except Exception:
            job_id = message[1] if len(message) > 1 else "?"
            reply = ("failed", job_id, traceback.format_exc())
        if reply is not None:
            conn.send(reply)
