"""Pluggable observability for the event dispatch path.

Everything a switch does flows through its
:class:`~repro.arch.bus.EventBus`; this subpackage provides the
observers that turn that stream into numbers and artifacts:

* :class:`EventCounters` — per-event-type published / suppressed /
  handled / dropped counters,
* :class:`DispatchLatencyHistogram` — log2-bucketed staleness of every
  handler dispatch, keyed off ``Simulator.now_ps``,
* :class:`JsonlTraceSink` — a JSONL event trace,
* :class:`RecordingObserver` — the in-memory equivalent, used by the
  determinism tests,
* :class:`CallbackProfiler` — a kernel-level tap counting executed
  simulator callbacks,
* :class:`FaultLog` — the sim-time-ordered timeline of injected fault
  actions (fed by :class:`~repro.faults.injector.FaultInjector`),
* :class:`ShardCounters` / :class:`ShardStats` — per-shard sync-round,
  boundary-packet, and lookahead-stall counters filled by
  :class:`~repro.sim.shard.ShardedSimulator` rather than by a bus,
* :class:`SearchStats` — trial/build/retry rollup of one
  :mod:`repro.search` artifact.

The :func:`observing` context manager attaches observers to every bus
created inside its block, which is how the ``events-stats`` and
``events-trace`` CLI subcommands instrument whole experiments without
modifying them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.arch.bus import BusObserver, EventBus
from repro.obs.counters import EventCounters
from repro.obs.faultlog import FaultLog
from repro.obs.kernel import CallbackProfiler
from repro.obs.latency import DispatchLatencyHistogram
from repro.obs.search import SearchStats
from repro.obs.shard import ShardCounters, ShardStats
from repro.obs.tracer import JsonlTraceSink, RecordingObserver, read_events_trace


@contextmanager
def observing(*observers: BusObserver) -> Iterator[Tuple[BusObserver, ...]]:
    """Attach ``observers`` to every :class:`EventBus` created in the block.

    Registration is global but scoped: buses created before the block or
    after it are unaffected, so wrapping an experiment function
    instruments exactly the switches it builds.
    """
    for observer in observers:
        EventBus.register_global_observer(observer)
    try:
        yield observers
    finally:
        for observer in observers:
            EventBus.unregister_global_observer(observer)


__all__ = [
    "BusObserver",
    "CallbackProfiler",
    "DispatchLatencyHistogram",
    "EventCounters",
    "FaultLog",
    "JsonlTraceSink",
    "RecordingObserver",
    "SearchStats",
    "ShardCounters",
    "ShardStats",
    "observing",
    "read_events_trace",
]
