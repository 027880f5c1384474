"""Event-trace sinks: JSONL on disk, or in-memory for tests.

:class:`JsonlTraceSink` streams one JSON object per line for every
publish / dispatch / drop the observed buses see.

:class:`RecordingObserver` keeps the same records in memory, with a
:meth:`~RecordingObserver.normalized` view that erases process-global
identifiers (packet ids, event ids) — two runs of the same seeded
experiment must produce *identical* normalized traces, which is the
determinism contract the test suite enforces.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, TextIO, Tuple

from repro.arch.bus import BusObserver, EventBus
from repro.arch.events import Event


class JsonlTraceSink(BusObserver):
    """Writes one JSON record per bus occurrence to a text stream.

    Record shapes (all share ``seq``, ``phase``, ``bus``, ``kind``,
    ``t_ps``, ``pkt``, ``meta``):

    * ``{"phase": "publish", "admitted": true|false, ...}``
    * ``{"phase": "dispatch", "latency_ps": N, "handled": true|false, ...}``
    * ``{"phase": "drop", ...}``
    """

    def __init__(self, target, include_dispatch: bool = True) -> None:
        if isinstance(target, (str, os.PathLike)):
            self._stream: TextIO = open(target, "w")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self.include_dispatch = include_dispatch
        self.records_written = 0

    # ------------------------------------------------------------------
    # BusObserver hooks
    # ------------------------------------------------------------------
    def on_publish(self, bus: EventBus, event: Event, admitted: bool) -> None:
        record = event.to_record()
        record.update(phase="publish", admitted=admitted)
        self._write(bus, record)

    def on_dispatch(
        self, bus: EventBus, event: Event, latency_ps: int, handled: bool
    ) -> None:
        if not self.include_dispatch:
            return
        record = event.to_record()
        record.update(phase="dispatch", latency_ps=latency_ps, handled=handled)
        self._write(bus, record)

    def on_drop(self, bus: EventBus, event: Event) -> None:
        record = event.to_record()
        record.update(phase="drop")
        self._write(bus, record)

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def _write(self, bus: EventBus, record: Dict[str, object]) -> None:
        record["seq"] = self.records_written
        record["bus"] = bus.name
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def close(self) -> None:
        """Flush and close (closes the file only if we opened it)."""
        self._stream.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events_trace(source) -> List[Dict[str, object]]:
    """Load every record of a JSONL event trace (path or text stream)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            return [json.loads(line) for line in handle if line.strip()]
    return [json.loads(line) for line in source if line.strip()]


class RecordingObserver(BusObserver):
    """Keeps every bus occurrence in memory (tests, determinism checks)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def on_publish(self, bus: EventBus, event: Event, admitted: bool) -> None:
        record = event.to_record()
        record.update(phase="publish", bus=bus.name, admitted=admitted)
        self.records.append(record)

    def on_dispatch(
        self, bus: EventBus, event: Event, latency_ps: int, handled: bool
    ) -> None:
        record = event.to_record()
        record.update(
            phase="dispatch", bus=bus.name, latency_ps=latency_ps, handled=handled
        )
        self.records.append(record)

    def on_drop(self, bus: EventBus, event: Event) -> None:
        record = event.to_record()
        record.update(phase="drop", bus=bus.name)
        self.records.append(record)

    def normalized(self) -> List[Tuple]:
        """The trace with process-global packet ids remapped.

        Packet ids come from a process-wide counter, so two runs of the
        same experiment in one process see different raw ids; mapping
        each id to its first-appearance index makes equal schedules
        compare equal while still distinguishing interleavings.
        """
        id_map: Dict[object, int] = {}
        result: List[Tuple] = []
        for record in self.records:
            pkt = record["pkt"]
            if pkt is not None:
                pkt = id_map.setdefault(pkt, len(id_map))
            result.append(
                (
                    record["phase"],
                    record["bus"],
                    record["kind"],
                    record["t_ps"],
                    pkt,
                    tuple(sorted(record["meta"].items())),
                )
            )
        return result

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.records.clear()
