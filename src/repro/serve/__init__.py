"""The multi-tenant simulation service.

``repro.serve`` turns the scenario registry (:mod:`repro.scenarios`)
into a long-running local service: clients submit registered scenario
names (plus parameter overrides) over a line-delimited JSON protocol,
a pool of :class:`~repro.experiments.parallel.PersistentWorker`
processes runs them concurrently under admission control, and each job
streams :mod:`repro.obs` telemetry windows back while it runs.  Phased
scenarios can be preempted into in-memory PR-3 checkpoints and resumed
on any worker; :meth:`Simulator.fork` gives the chaos grid O(fork)
variants.  See docs/SERVING.md.
"""

from repro.experiments.parallel import CRASH_RETRIES
from repro.serve.client import ServiceClient, ServiceError, run_inline, submit_inline
from repro.serve.protocol import (
    JOB_STATES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    ProtocolError,
    decode,
    encode,
    error_reply,
    event_message,
    ok_reply,
)
from repro.serve.server import main, run_service, serve_socket, serve_stdio
from repro.serve.service import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    Job,
    JobService,
)
from repro.serve.worker import DEFAULT_WINDOWS, snapshot, worker_main

__all__ = [
    "CRASH_RETRIES",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WINDOWS",
    "DEFAULT_WORKERS",
    "JOB_STATES",
    "Job",
    "JobService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_OPS",
    "ServiceClient",
    "ServiceError",
    "decode",
    "encode",
    "error_reply",
    "event_message",
    "main",
    "ok_reply",
    "run_inline",
    "run_service",
    "serve_socket",
    "serve_stdio",
    "snapshot",
    "submit_inline",
    "worker_main",
]
