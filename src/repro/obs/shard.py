"""Per-shard counters for the conservative-parallel engine.

Unlike the bus observers, shard counters are not attached to an
:class:`~repro.arch.bus.EventBus` — the coordinator and each worker
fill one :class:`ShardCounters` record per shard as windows execute,
and :class:`ShardStats` aggregates them for the ``repro shard`` CLI
and ``events-stats``.  They are plain picklable data so workers can
ship them back over the pipe at the end of a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass
class ShardCounters:
    """What one shard did during a sharded run."""

    shard_id: int
    switches: int = 0
    hosts: int = 0
    #: synchronization windows this shard participated in.
    sync_rounds: int = 0
    #: packets this shard sent across / received over boundary links.
    boundary_tx: int = 0
    boundary_rx: int = 0
    #: windows in which the shard executed zero events (lookahead stalls).
    stall_windows: int = 0
    #: simulator callbacks executed inside this shard.
    events_executed: int = 0
    #: seconds spent injecting, running windows and collecting outboxes
    #: (compute), and seconds spent encoding outbound and decoding
    #: inbound boundary payloads (serialize; kept out of ``wall_s``).
    wall_s: float = 0.0
    serialize_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass
class ShardStats:
    """Aggregated view over every shard of a run."""

    lookahead_ps: int = 0
    windows: int = 0
    shards: List[ShardCounters] = field(default_factory=list)

    def total(self, name: str) -> float:
        return sum(getattr(counter, name) for counter in self.shards)

    def as_dict(self) -> Dict[str, object]:
        return {
            "lookahead_ps": self.lookahead_ps,
            "windows": self.windows,
            "boundary_packets": self.total("boundary_tx"),
            "events_executed": self.total("events_executed"),
            "stall_windows": self.total("stall_windows"),
            "serialize_s": self.total("serialize_s"),
            "shards": [counter.as_dict() for counter in self.shards],
        }

    def summary_rows(self) -> List[str]:
        """One printable row per shard plus an aggregate footer."""
        rows = [
            f"{'shard':<6} {'switches':>8} {'hosts':>6} {'rounds':>7} "
            f"{'bnd tx':>7} {'bnd rx':>7} {'stalls':>7} {'events':>9} "
            f"{'compute s':>9} {'ser s':>7}"
        ]
        for counter in self.shards:
            rows.append(
                f"{counter.shard_id:<6} {counter.switches:>8} "
                f"{counter.hosts:>6} {counter.sync_rounds:>7} "
                f"{counter.boundary_tx:>7} {counter.boundary_rx:>7} "
                f"{counter.stall_windows:>7} {counter.events_executed:>9} "
                f"{counter.wall_s:>9.3f} {counter.serialize_s:>7.3f}"
            )
        if len(rows) == 1:
            rows.append("(no shards ran)")
        rows.append(
            f"{self.windows} window(s), lookahead {self.lookahead_ps} ps, "
            f"{self.total('boundary_tx')} boundary packet(s), "
            f"{self.total('stall_windows')} stall window(s)"
        )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardStats(shards={len(self.shards)}, windows={self.windows}, "
            f"boundary={self.total('boundary_tx')})"
        )
