"""State replication across independent pipelines (paper §4).

"Things get more complicated when a device has multiple independent
pipelines (e.g. Tofino has four independent pipelines).  Deciding how
state is shared turns out to be a key design decision."

On such a device each pipeline holds its own copy of the algorithmic
state, and a flow whose packets spray across pipelines updates all the
copies *partially*.  :class:`ReplicatedRegister` models the standard
remedy — periodic delta exchange:

* each replica accumulates a local **delta** since the last sync,
* :meth:`sync` folds every replica's delta into the shared **base** and
  redistributes it, so all replicas agree right after a sync,
* between syncs, a replica's reads miss the other pipelines' deltas —
  the cross-pipeline staleness this module measures.

:func:`run_multipipe` drives a per-flow-occupancy workload across K
pipelines and reports read error and sync cost as a function of the
sync period, quantifying §4's "key design decision".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.rng import SeededRng
from repro.state.store import StateStore, make_store


class ReplicatedRegister:
    """One logical register array replicated across K pipelines.

    The base copy and each replica's delta are :class:`StateStore`
    instances.
    """

    def __init__(
        self,
        replicas: int,
        size: int,
        name: str = "replicated",
    ) -> None:
        if replicas <= 0:
            raise ValueError(f"replica count must be positive, got {replicas}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.replicas = replicas
        self.size = size
        self.name = name
        self._base = make_store(size, 0, name=f"{name}.base")
        self._delta = [
            make_store(size, 0, name=f"{name}.delta[{i}]")
            for i in range(replicas)
        ]
        self.syncs = 0
        self.entries_synced = 0

    # ------------------------------------------------------------------
    # Per-pipeline data-plane operations
    # ------------------------------------------------------------------
    def add(self, replica: int, index: int, delta: int) -> None:
        """Pipeline ``replica`` applies a local read-modify-write add."""
        self._check(replica, index)
        self._delta[replica][index] += delta

    def read(self, replica: int, index: int) -> int:
        """Pipeline ``replica``'s view: base + its own delta only."""
        self._check(replica, index)
        return self._base[index] + self._delta[replica][index]

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Fold all deltas into the base; returns entries exchanged.

        The cost model: every index any replica dirtied must cross the
        inter-pipeline interconnect once per dirty replica.
        """
        self.syncs += 1
        exchanged = 0
        for index in range(self.size):
            for replica in range(self.replicas):
                delta = self._delta[replica][index]
                if delta:
                    self._base[index] += delta
                    self._delta[replica][index] = 0
                    exchanged += 1
        self.entries_synced += exchanged
        return exchanged

    # ------------------------------------------------------------------
    # Truth and staleness
    # ------------------------------------------------------------------
    def truth(self, index: int) -> int:
        """The global value (base plus every replica's pending delta)."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range")
        return self._base[index] + sum(
            self._delta[replica][index] for replica in range(self.replicas)
        )

    def read_error(self, replica: int, index: int) -> int:
        """How far one replica's view is from the global truth."""
        return abs(self.truth(index) - self.read(replica, index))

    def _check(self, replica: int, index: int) -> None:
        if not 0 <= replica < self.replicas:
            raise IndexError(f"replica {replica} out of range [0, {self.replicas})")
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0, {self.size})")

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._base, *self._delta]

    def __repr__(self) -> str:
        return (
            f"ReplicatedRegister({self.name!r}, replicas={self.replicas}, "
            f"size={self.size}, syncs={self.syncs})"
        )


@dataclass
class MultiPipeResult:
    """Outcome of one multi-pipeline run."""

    pipelines: int
    sync_period_cycles: Optional[int]
    reads: int
    mean_read_error: float
    max_read_error: int
    stale_read_fraction: float
    sync_entries_per_cycle: float

    def summary_row(self) -> str:
        """A printable summary row."""
        period = (
            f"{self.sync_period_cycles}" if self.sync_period_cycles else "never"
        )
        return (
            f"pipes={self.pipelines} sync_every={period:<6} "
            f"read_err(mean/max)={self.mean_read_error:7.1f}/{self.max_read_error:<6} "
            f"stale%={100 * self.stale_read_fraction:5.1f} "
            f"sync_cost={self.sync_entries_per_cycle:6.3f} entries/cycle"
        )


def run_multipipe(
    pipelines: int = 4,
    sync_period_cycles: Optional[int] = 64,
    cycles: int = 50_000,
    flows: int = 32,
    update_rate: float = 0.5,
    read_rate: float = 0.3,
    seed: int = 3,
) -> MultiPipeResult:
    """Flows spray across pipelines; replicas track per-flow occupancy.

    Each cycle, each pipeline applies an occupancy update (±64B, never
    below zero globally) with probability ``update_rate`` and reads a
    random flow's occupancy with probability ``read_rate``.  Smaller
    sync periods buy accuracy with interconnect bandwidth; ``None``
    never syncs (fully partitioned state).
    """
    if pipelines <= 0:
        raise ValueError(f"pipeline count must be positive, got {pipelines}")
    if sync_period_cycles is not None and sync_period_cycles <= 0:
        raise ValueError("sync period must be positive (or None)")
    register = ReplicatedRegister(pipelines, flows)
    rng = SeededRng(seed, "multipipe")
    reads = 0
    stale_reads = 0
    total_error = 0
    max_error = 0
    for cycle in range(cycles):
        if sync_period_cycles is not None and cycle and cycle % sync_period_cycles == 0:
            register.sync()
        for pipe in range(pipelines):
            if rng.random() < update_rate:
                flow = rng.randint(0, flows - 1)
                if register.truth(flow) >= 64 and rng.random() < 0.5:
                    register.add(pipe, flow, -64)
                else:
                    register.add(pipe, flow, 64)
            if rng.random() < read_rate:
                flow = rng.randint(0, flows - 1)
                error = register.read_error(pipe, flow)
                reads += 1
                total_error += error
                max_error = max(max_error, error)
                if error:
                    stale_reads += 1
    return MultiPipeResult(
        pipelines=pipelines,
        sync_period_cycles=sync_period_cycles,
        reads=reads,
        mean_read_error=total_error / reads if reads else 0.0,
        max_read_error=max_error,
        stale_read_fraction=stale_reads / reads if reads else 0.0,
        sync_entries_per_cycle=register.entries_synced / cycles,
    )
