"""Staleness measurement.

Paper §4: "whenever state is distributed across pipeline stages, the
algorithmic state will sometimes be stale ... staleness is bounded if
the pipeline runs slightly faster than the line rate."

:class:`StalenessTracker` samples (truth, observed) pairs over time and
summarizes the error in value terms (how wrong was the queue size a
packet event read); its report carries the lag terms (how many cycles
behind the main register ran) that the register file measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StalenessReport:
    """Summary statistics of observed staleness."""

    samples: int
    max_error: int
    mean_error: float
    stale_fraction: float
    max_lag_cycles: int
    mean_lag_cycles: float

    def row(self) -> str:
        """A printable report row."""
        return (
            f"samples={self.samples} max_err={self.max_error} "
            f"mean_err={self.mean_error:.2f} stale%={100 * self.stale_fraction:.1f} "
            f"max_lag={self.max_lag_cycles}cyc mean_lag={self.mean_lag_cycles:.1f}cyc"
        )


class StalenessTracker:
    """Accumulates staleness samples cheaply (no per-sample storage)."""

    def __init__(self) -> None:
        self.samples = 0
        self.stale_samples = 0
        self.max_error = 0
        self.total_error = 0

    def record_value(self, truth: int, observed: int) -> None:
        """Record one packet-event read of possibly stale state."""
        error = abs(truth - observed)
        self.samples += 1
        if error:
            self.stale_samples += 1
        self.max_error = max(self.max_error, error)
        self.total_error += error

    def report(self, max_lag_cycles: int, mean_lag_cycles: float) -> StalenessReport:
        """Summarize the values recorded so far, with the lag the caller
        measured (how many cycles behind the main register ran)."""
        return StalenessReport(
            samples=self.samples,
            max_error=self.max_error,
            mean_error=self.total_error / self.samples if self.samples else 0.0,
            stale_fraction=self.stale_samples / self.samples if self.samples else 0.0,
            max_lag_cycles=max_lag_cycles,
            mean_lag_cycles=mean_lag_cycles,
        )
