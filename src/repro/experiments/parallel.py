"""Process-parallel sweeps of independent experiment points.

Figure sweeps and benchmark trajectories run many *independent*
simulations — each point builds its own :class:`~repro.sim.kernel.Simulator`
and shares no state with its neighbours — so they parallelize across
processes trivially.  :func:`run_points` fans points over a
``multiprocessing`` pool and merges results **deterministically**:
results always come back in input order (``Pool.map`` semantics),
regardless of which worker finished first, so a parallel sweep is
byte-for-byte the same report as a serial one.

Points and their results must be picklable; the worker function must be
importable (module-level).  With ``workers=1``, a single point, or on a
single-CPU host the sweep degrades to a plain serial loop in-process —
no pool is spawned, which also keeps the serial path debuggable.
"""

from __future__ import annotations

import multiprocessing.connection
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple


def default_workers() -> int:
    """Worker count used when the caller does not pick one.

    Prefers the scheduling affinity mask over the raw CPU count:
    cgroup-limited CI runners and containers report every host core via
    ``os.cpu_count()`` but only let the process run on a few, and
    oversubscribing the pool there just adds context-switch overhead.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux or restricted platform
        return max(1, os.cpu_count() or 1)


def run_points(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> List[Any]:
    """Apply ``fn`` to every point, fanning across processes.

    Returns ``[fn(p) for p in points]`` — same values, same order — but
    computed on up to ``workers`` processes.  ``chunksize=1`` keeps
    scheduling fair for unevenly sized points; raise it for many tiny
    points.
    """
    points = list(points)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(points) <= 1:
        return [fn(point) for point in points]
    workers = min(workers, len(points))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, points, chunksize=chunksize)


def _apply(task: Tuple[Callable[..., Any], tuple, dict]) -> Any:
    fn, args, kwargs = task
    return fn(*args, **kwargs)


def run_tasks(
    tasks: Sequence[Tuple[Callable[..., Any], tuple, dict]],
    workers: Optional[int] = None,
) -> List[Any]:
    """Run ``(fn, args, kwargs)`` triples in parallel, input-ordered.

    Convenience wrapper over :func:`run_points` for sweeps whose points
    call different functions or need keyword parameters.
    """
    return run_points(_apply, tasks, workers=workers)


# ---------------------------------------------------------------------------
# Persistent workers
#
# Pool.map is fire-and-forget: each point is independent and workers
# keep no state between points.  The sharded simulator needs the
# opposite — a worker that builds its shard once and then exchanges
# small synchronization messages with the coordinator every window.
# PersistentWorker wraps one such process + duplex pipe; the message
# protocol on top of it is owned by the caller (repro.sim.shard).
# ---------------------------------------------------------------------------


class WorkerCrashed(RuntimeError):
    """A persistent worker died or reported an exception."""


def _forked_main(parent_conn, main: Callable[..., None], *args: Any) -> None:
    # A forked child inherits the parent's end of its own pipe; while it
    # holds that end, a SIGKILLed parent never produces EOF and the
    # worker outlives it as an orphan.
    parent_conn.close()
    main(*args)


class PersistentWorker:
    """One long-lived worker process behind a duplex pipe.

    ``main`` must be a module-level (picklable) function with signature
    ``main(conn, *args)``; it owns the worker side of the pipe until it
    returns.  The parent talks through :meth:`send` / :meth:`recv`;
    :meth:`recv` raises :class:`WorkerCrashed` when the child dies
    instead of blocking forever, and converts ``("error", traceback)``
    replies into exceptions carrying the worker's traceback.
    """

    def __init__(self, main: Callable[..., None], *args: Any) -> None:
        # fork keeps worker startup cheap (no re-import of the package);
        # platforms without it (macOS 3.14+, Windows) fall back to spawn,
        # which is why ``main`` must stay module-level/picklable.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._conn, child_conn = ctx.Pipe(duplex=True)
        target, target_args = main, (child_conn, *args)
        if ctx.get_start_method() == "fork":
            target, target_args = _forked_main, (self._conn, main, *target_args)
        self._process = ctx.Process(target=target, args=target_args, daemon=True)
        self._process.start()
        child_conn.close()

    @property
    def connection(self):
        """The parent end of the duplex pipe, for multiplexed waits.

        Callers juggling several workers hand these to :func:`wait_any`
        (``multiprocessing.connection.wait`` underneath) and then call
        :meth:`recv` on whichever workers are ready — no polling, no
        blocking on a single slow worker.
        """
        return self._conn

    def send(self, message: Any) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker pipe closed: {exc}") from exc

    def recv(self) -> Any:
        try:
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            code = self._process.exitcode
            raise WorkerCrashed(
                f"worker exited (exitcode={code}) before replying"
            ) from exc
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise WorkerCrashed(f"worker raised:\n{reply[1]}")
        return reply

    def close(self) -> None:
        """Terminate the process and release the pipe; idempotent."""
        if self._process.is_alive():
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=2.0)
            if self._process.is_alive():  # pragma: no cover - safety net
                self._process.terminate()
                self._process.join(timeout=2.0)
        self._conn.close()

    def __enter__(self) -> "PersistentWorker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def wait_any(
    workers: Sequence["PersistentWorker"], timeout: Optional[float] = None
) -> List["PersistentWorker"]:
    """Workers with a reply (or a death) ready to :meth:`~PersistentWorker.recv`.

    Blocks until at least one of ``workers`` has something on its pipe —
    including EOF from a crashed child, which the subsequent ``recv``
    converts into :class:`WorkerCrashed`.  Order follows the input
    sequence, not readiness order, so callers draining replies stay
    deterministic.
    """
    ready = multiprocessing.connection.wait(
        [worker.connection for worker in workers], timeout=timeout
    )
    ready_set = set(ready)
    return [worker for worker in workers if worker.connection in ready_set]
