"""The multi-tenant job service: admission, scheduling, preemption.

:class:`JobService` owns a pool of
:class:`~repro.experiments.parallel.PersistentWorker` processes (the
PR-6 primitive) and a bounded queue of submitted scenarios.  The
asyncio side never blocks on a worker: pipe receives run in executor
threads, so many clients can submit, poll, and cancel while simulations
run concurrently.

Scheduling model
----------------

* **Admission control** happens at ``submit``: unknown scenario names,
  invalid parameter overrides, and a full queue are refused
  synchronously — nothing invalid ever reaches a worker.
* Jobs run FIFO on the first free worker.  Each worker executes one
  simulation at a time (simulations are single-threaded; concurrency
  comes from the pool, capped by ``workers``).
* **Cancel** dequeues a queued job immediately.  A *running* phased job
  is preempted at its next telemetry window: the worker ships back an
  in-memory PR-3 checkpoint and the job parks in state ``preempted``
  until ``resume`` requeues it — on any worker, since the checkpoint
  carries the whole simulation.
* **Crash isolation**: a worker process dying (``WorkerCrashed``) kills
  neither the service nor the job — the slot respawns a fresh process
  and the job retries once before being marked ``failed``.  Job
  exceptions are not crashes; they come back as tracebacks in state
  ``failed`` without a retry.

Telemetry from workers (window snapshots) is appended to the job record
and pushed to every subscribed client as ``event`` messages.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.parallel import CRASH_RETRIES, PersistentWorker, WorkerCrashed
from repro.scenarios import (
    ScenarioError,
    UnknownScenario,
    names,
    resolve,
    specs,
)
from repro.scenarios.spec import ScenarioSpec
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    error_reply,
    event_message,
    ok_reply,
)
from repro.serve.worker import DEFAULT_WINDOWS, worker_main

#: Default worker-pool size and queued-job bound.
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_LIMIT = 8


@dataclass
class Job:
    """One submission's full lifecycle record."""

    id: str
    spec: ScenarioSpec
    state: str = "queued"
    attempts: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    checkpoint: Optional[bytes] = None
    cancel_requested: bool = False
    telemetry: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List[asyncio.Queue] = field(default_factory=list)

    def record(self) -> Dict[str, Any]:
        """The JSON-able job record sent in ``status``/``jobs`` replies."""
        return {
            "job": self.id,
            "scenario": self.spec.name,
            "state": self.state,
            "attempts": self.attempts,
            "phased": self.spec.is_phased,
            "telemetry_windows": len(self.telemetry),
            "last_telemetry": self.telemetry[-1] if self.telemetry else None,
            "error": self.error,
            "has_checkpoint": self.checkpoint is not None,
        }


class _Slot:
    """One worker process; respawned in place after a crash."""

    def __init__(self, windows: int) -> None:
        self.windows = windows
        self.worker = PersistentWorker(worker_main, windows)

    def respawn(self) -> None:
        try:
            self.worker.close()
        except Exception:
            pass
        self.worker = PersistentWorker(worker_main, self.windows)

    def close(self) -> None:
        self.worker.close()


class JobService:
    """Admission-controlled scenario execution over a worker pool."""

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        windows: int = DEFAULT_WINDOWS,
    ) -> None:
        self.workers = max(1, int(workers))
        self.queue_limit = max(1, int(queue_limit))
        self.windows = max(1, int(windows))
        self.closing = False
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._slots: List[_Slot] = []
        self._tasks: List[asyncio.Task] = []
        self._running: Dict[int, Optional[Job]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool and its pump tasks."""
        self._slots = [_Slot(self.windows) for _ in range(self.workers)]
        self._tasks = [
            asyncio.create_task(self._worker_loop(index))
            for index in range(self.workers)
        ]

    async def close(self) -> None:
        """Stop accepting, cancel queued jobs, shut the pool down."""
        self.closing = True
        for job in self._jobs.values():
            if job.state == "queued":
                job.state = "cancelled"
        for _ in self._tasks:
            self._queue.put_nowait(None)
        for slot, job in list(self._running.items()):
            if job is not None:
                job.cancel_requested = True
                try:
                    self._slots[slot].worker.send(("cancel", job.id))
                except WorkerCrashed:
                    pass
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for slot in self._slots:
            try:
                slot.close()
            except Exception:
                pass
        self._tasks = []
        self._slots = []

    # ------------------------------------------------------------------
    # Worker pump
    # ------------------------------------------------------------------
    def _push(self, job: Job, message: Dict[str, Any]) -> None:
        for queue in job.subscribers:
            queue.put_nowait(message)

    async def _worker_loop(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None or self.closing:
                return
            if job.state != "queued":  # cancelled while waiting
                continue
            job.state = "running"
            self._running[index] = job
            try:
                await self._drive(loop, index, job)
            finally:
                self._running[index] = None

    async def _drive(self, loop, index: int, job: Job) -> None:
        slot = self._slots[index]
        try:
            if job.checkpoint is not None:
                blob, job.checkpoint = job.checkpoint, None
                slot.worker.send(("resume", job.id, blob))
            else:
                slot.worker.send(("run", job.id, job.spec))
            if job.cancel_requested:
                slot.worker.send(("cancel", job.id))
            while True:
                reply = await loop.run_in_executor(None, slot.worker.recv)
                kind = reply[0]
                if kind == "telemetry":
                    job.telemetry.append(reply[2])
                    self._push(
                        job,
                        event_message("telemetry", job=job.id, telemetry=reply[2]),
                    )
                elif kind == "done":
                    job.state = "done"
                    job.result = reply[2]
                    self._push(job, event_message("done", job=job.id, state="done"))
                    return
                elif kind == "failed":
                    job.state = "failed"
                    job.error = str(reply[2])
                    self._push(
                        job,
                        event_message(
                            "done", job=job.id, state="failed", error=job.error
                        ),
                    )
                    return
                elif kind == "preempted":
                    job.state = "preempted"
                    job.checkpoint = reply[2]
                    job.cancel_requested = False
                    job.telemetry.append(reply[3])
                    self._push(
                        job, event_message("done", job=job.id, state="preempted")
                    )
                    return
        except WorkerCrashed as exc:
            slot.respawn()
            job.attempts += 1
            if job.attempts <= CRASH_RETRIES and not self.closing:
                job.state = "queued"
                self._push(
                    job,
                    event_message(
                        "retry", job=job.id, attempts=job.attempts, error=str(exc)
                    ),
                )
                self._queue.put_nowait(job)
            else:
                job.state = "failed"
                job.error = f"worker crashed: {exc}"
                self._push(
                    job,
                    event_message("done", job=job.id, state="failed", error=job.error),
                )

    # ------------------------------------------------------------------
    # Request handling (shared by every frontend)
    # ------------------------------------------------------------------
    def _queued_count(self) -> int:
        return sum(1 for job in self._jobs.values() if job.state == "queued")

    def _job_or_none(self, request: Dict[str, Any]) -> Optional[Job]:
        return self._jobs.get(str(request.get("job", "")))

    async def handle(
        self,
        request: Dict[str, Any],
        events: Optional[asyncio.Queue] = None,
    ) -> Dict[str, Any]:
        """One request in, one reply out; pushes go to ``events``."""
        op = request.get("op")
        if op == "hello":
            return ok_reply(
                protocol=PROTOCOL_VERSION,
                workers=self.workers,
                queue_limit=self.queue_limit,
                scenarios=len(names()),
            )
        if op == "scenarios":
            tag = request.get("tag") or None
            return ok_reply(scenarios=[spec.describe() for spec in specs(tag)])
        if op == "submit":
            return self._submit(request, events)
        if op == "status":
            job = self._job_or_none(request)
            if job is None:
                return error_reply(f"no such job {request.get('job')!r}")
            return ok_reply(job=job.record())
        if op == "jobs":
            return ok_reply(jobs=[self._jobs[jid].record() for jid in self._order])
        if op == "result":
            job = self._job_or_none(request)
            if job is None:
                return error_reply(f"no such job {request.get('job')!r}")
            if job.state == "done":
                return ok_reply(job=job.record(), result=job.result)
            if job.state == "failed":
                return error_reply(job.error or "job failed", job=job.record())
            return error_reply(f"job is {job.state}, not done", job=job.record())
        if op == "cancel":
            return self._cancel(request)
        if op == "resume":
            return self._resume(request, events)
        if op == "shutdown":
            self.closing = True
            for job in self._jobs.values():
                if job.state == "queued":
                    job.state = "cancelled"
            return ok_reply(shutdown=True)
        return error_reply(f"unknown op {op!r}")

    def _submit(
        self, request: Dict[str, Any], events: Optional[asyncio.Queue]
    ) -> Dict[str, Any]:
        if self.closing:
            return error_reply("service is shutting down")
        name = str(request.get("scenario", ""))
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return error_reply("params must be an object")
        try:
            spec = resolve(name, **params)
        except UnknownScenario as exc:
            return error_reply(str(exc), registered=exc.registered)
        except ScenarioError as exc:
            return error_reply(str(exc))
        if self._queued_count() >= self.queue_limit:
            return error_reply(
                f"queue full ({self.queue_limit} queued jobs)",
                queue_limit=self.queue_limit,
            )
        self._counter += 1
        job = Job(id=f"job-{self._counter}", spec=spec)
        if events is not None:
            job.subscribers.append(events)
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._queue.put_nowait(job)
        return ok_reply(job=job.id, scenario=spec.name, state=job.state)

    def _cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job_or_none(request)
        if job is None:
            return error_reply(f"no such job {request.get('job')!r}")
        if job.state == "queued":
            job.state = "cancelled"
            return ok_reply(job=job.record())
        if job.state == "running":
            job.cancel_requested = True
            for index, running in self._running.items():
                if running is job:
                    try:
                        self._slots[index].worker.send(("cancel", job.id))
                    except WorkerCrashed:
                        pass
            return ok_reply(job=job.record(), cancelling=True)
        return error_reply(f"job is {job.state}; nothing to cancel", job=job.record())

    def _resume(
        self, request: Dict[str, Any], events: Optional[asyncio.Queue]
    ) -> Dict[str, Any]:
        if self.closing:
            return error_reply("service is shutting down")
        job = self._job_or_none(request)
        if job is None:
            return error_reply(f"no such job {request.get('job')!r}")
        if job.state != "preempted" or job.checkpoint is None:
            return error_reply(
                f"job is {job.state}; only preempted jobs resume", job=job.record()
            )
        if self._queued_count() >= self.queue_limit:
            return error_reply(f"queue full ({self.queue_limit} queued jobs)")
        if events is not None and events not in job.subscribers:
            job.subscribers.append(events)
        job.state = "queued"
        self._queue.put_nowait(job)
        return ok_reply(job=job.record())
