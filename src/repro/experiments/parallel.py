"""Persistent worker processes behind duplex pipes.

The sharded simulator (:mod:`repro.sim.shard`), the job service
(:mod:`repro.serve`) and the search runner (:mod:`repro.search.runner`)
each need a worker that builds its state once and then exchanges small
messages with a coordinator.  :class:`PersistentWorker` wraps one such
process and its pipe; the message protocol on top of it is owned by the
caller.  :func:`wait_any` multiplexes replies from several workers, and
a worker that dies raises :class:`WorkerCrashed`, after which callers
respawn it and re-dispatch its work up to :data:`CRASH_RETRIES` times.
The chaos grid (:mod:`repro.faults.chaos`) uses it one-shot: a forked
worker inherits the built scenarios, runs its share of the grid and
replies once.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence


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


#: How many times a job or trial whose worker crashed is re-dispatched
#: on a fresh worker before it is reported failed.
CRASH_RETRIES = 1


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
        # Imported on first use, so importing this module for
        # default_workers or WorkerCrashed imports no multiprocessing.
        import multiprocessing

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
    import multiprocessing.connection

    ready = multiprocessing.connection.wait(
        [worker.connection for worker in workers], timeout=timeout
    )
    ready_set = set(ready)
    return [worker for worker in workers if worker.connection in ready_set]
