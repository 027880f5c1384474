"""Consistency of multi-threaded data-plane state (paper §7).

"Both of these proposals [Domino, FlowBlaze] only consider single
threaded data-plane programs.  In an event-driven programming model
there can be many event processing threads that share the same state.
Defining a consistency model for multi-threaded data-plane programs
remains an area of future work."

This module makes the problem concrete and measurable:

* :class:`DelayedRmwRegister` models a read-modify-write whose read and
  write sit ``latency_cycles`` apart (the operation spread across
  pipeline stages).  Two threads whose RMWs overlap on the same index
  exhibit the classic *lost update*: the later write clobbers the
  earlier one's effect.  The register counts exactly how many updates
  were lost.
* ``latency_cycles=0`` recovers the atomic semantics of Domino's
  per-packet transactions and of the paper's single-stage
  ``shared_register`` — zero lost updates, by construction.
* :func:`run_contention` drives several event threads against shared
  counters and reports the loss rate as a function of RMW latency and
  contention — the quantitative backdrop for the consistency-model
  future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.rng import SeededRng
from repro.state.store import StateStore, make_store


class DelayedRmwRegister:
    """A register whose read-modify-writes take ``latency_cycles``.

    ``add_rmw(cycle, index, delta)`` reads the committed value at
    ``cycle`` and commits ``value + delta`` at ``cycle + latency``.
    Call :meth:`advance_to` to commit due writes.  Because a concurrent
    RMW that committed between our read and our write is overwritten,
    its update is *lost* — observable as a final total smaller than the
    issued count; :attr:`interference_commits` additionally counts every
    commit that clobbered a concurrent one.
    """

    def __init__(
        self,
        size: int,
        latency_cycles: int,
        name: str = "delayed",
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if latency_cycles < 0:
            raise ValueError(f"latency must be non-negative, got {latency_cycles}")
        self.size = size
        self.latency_cycles = latency_cycles
        self.name = name
        self._cells = make_store(size, 0, name=f"{name}.cells")
        # Pending: (commit_cycle, read_cycle, index, new_value)
        self._pending: List[Tuple[int, int, int, int]] = []
        self._last_commit = make_store(size, -1, name=f"{name}.last_commit")
        self.issued = 0
        self.interference_commits = 0

    def read(self, cycle: int, index: int) -> int:
        """Read the committed value (in-flight writes are invisible)."""
        self._check(index)
        return self._cells[index]

    def add_rmw(self, cycle: int, index: int, delta: int) -> None:
        """Issue a read-modify-write add."""
        self._check(index)
        self.issued += 1
        new_value = self._cells[index] + delta
        if self.latency_cycles == 0:
            self._commit(cycle, cycle, index, new_value)
        else:
            self._pending.append((cycle + self.latency_cycles, cycle, index, new_value))

    def advance_to(self, cycle: int) -> None:
        """Commit every pending write due at or before ``cycle``."""
        if not self._pending:
            return
        due = [entry for entry in self._pending if entry[0] <= cycle]
        if not due:
            return
        self._pending = [entry for entry in self._pending if entry[0] > cycle]
        for commit_cycle, read_cycle, index, new_value in sorted(due):
            self._commit(commit_cycle, read_cycle, index, new_value)

    def _commit(self, commit_cycle: int, read_cycle: int, index: int, new_value: int) -> None:
        if self._last_commit[index] > read_cycle:
            # Someone committed after our read: their update is clobbered.
            self.interference_commits += 1
        self._cells[index] = new_value
        self._last_commit[index] = commit_cycle

    def snapshot(self) -> List[int]:
        """Committed cell values (delegates to the store)."""
        return self._cells.snapshot()

    def total(self) -> int:
        """Sum over all cells."""
        return self._cells.sum_values()

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._cells, self._last_commit]

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0, {self.size})")

    def __repr__(self) -> str:
        return (
            f"DelayedRmwRegister({self.name!r}, latency={self.latency_cycles}, "
            f"interference={self.interference_commits}/{self.issued})"
        )


@dataclass
class ContentionResult:
    """Outcome of one contention run."""

    latency_cycles: int
    thread_count: int
    counters: int
    issued: int
    final_total: int
    interference_commits: int

    @property
    def lost_updates(self) -> int:
        """Updates whose effect vanished (issued − applied), exactly."""
        return self.issued - self.final_total

    @property
    def loss_rate(self) -> float:
        """Fraction of issued updates whose effect vanished."""
        return self.lost_updates / self.issued if self.issued else 0.0

    def summary_row(self) -> str:
        """A printable summary row."""
        return (
            f"rmw_latency={self.latency_cycles:<3} threads={self.thread_count} "
            f"issued={self.issued:<7} applied={self.final_total:<7} "
            f"lost={self.lost_updates:<6} ({100 * self.loss_rate:5.2f}%)"
        )


def run_contention(
    latency_cycles: int,
    thread_count: int = 3,
    counters: int = 4,
    cycles: int = 50_000,
    fire_probability: float = 0.3,
    seed: int = 2,
) -> ContentionResult:
    """Several event threads increment shared counters concurrently.

    Each cycle, each thread fires with ``fire_probability`` and
    increments a random counter.  With ``latency_cycles == 0`` (atomic
    RMW) the final total equals the issued count exactly; with
    multi-cycle RMWs updates are lost at a rate growing with latency
    and contention.
    """
    if thread_count <= 0:
        raise ValueError(f"thread count must be positive, got {thread_count}")
    if not 0 < fire_probability <= 1:
        raise ValueError(f"fire probability must be in (0, 1], got {fire_probability}")
    register = DelayedRmwRegister(counters, latency_cycles)
    rngs = [SeededRng(seed, f"thread{i}") for i in range(thread_count)]
    for cycle in range(cycles):
        register.advance_to(cycle)
        for rng in rngs:
            if rng.random() < fire_probability:
                register.add_rmw(cycle, rng.randint(0, counters - 1), 1)
    register.advance_to(cycles + latency_cycles + 1)
    return ContentionResult(
        latency_cycles=latency_cycles,
        thread_count=thread_count,
        counters=counters,
        issued=register.issued,
        final_total=register.total(),
        interference_commits=register.interference_commits,
    )
