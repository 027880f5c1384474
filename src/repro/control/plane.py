"""A latency- and rate-limited control plane.

Models the PCIe/driver/software path between switch ASIC and
controller:

* every operation (read a register, clear a sketch, install a route)
  costs a round-trip latency,
* bulk operations (clearing a count-min sketch) cost per-element write
  time on top,
* the controller is single-threaded: overlapping work queues up.

This is the overhead the paper wants to *remove* by letting timer and
link events handle periodic and failure work in the data plane.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Tuple

from repro.sim.kernel import Simulator
from repro.sim.units import MICROSECONDS, MILLISECONDS


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Latency parameters of the control path.

    Defaults follow common published figures: tens of microseconds of
    PCIe/driver round trip and per-entry write costs, milliseconds of
    software reaction time for route recomputation.
    """

    rtt_ps: int = 50 * MICROSECONDS
    per_entry_write_ps: int = 2 * MICROSECONDS
    reroute_compute_ps: int = 10 * MILLISECONDS
    failure_detection_ps: int = 100 * MILLISECONDS

    def __post_init__(self) -> None:
        for name in ("rtt_ps", "per_entry_write_ps", "reroute_compute_ps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class ControlPlane:
    """A single-threaded software controller on the simulator clock."""

    def __init__(
        self,
        sim: Simulator,
        config: ControlPlaneConfig = ControlPlaneConfig(),
        name: str = "controller",
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self._queue: Deque[Tuple[int, Callable[[], None]]] = deque()
        self._busy = False
        self.operations_completed = 0
        self.busy_time_ps = 0
        self.table_updates = 0
        self.digests_received: List[Dict[str, int]] = []

    # ------------------------------------------------------------------
    # Operation submission
    # ------------------------------------------------------------------
    def submit(self, duration_ps: int, action: Callable[[], None]) -> None:
        """Queue an operation taking ``duration_ps`` of controller time."""
        if duration_ps < 0:
            raise ValueError(f"duration must be non-negative, got {duration_ps}")
        self._queue.append((duration_ps, action))
        self._pump()

    def clear_sketch(self, sketch) -> None:
        """Clear a count-min sketch over the control path.

        Cost: one RTT plus a per-counter write — the overhead the paper
        calls "significant ... especially if the data structure must be
        frequently reset".
        """
        duration = (
            self.config.rtt_ps
            + sketch.counter_count * self.config.per_entry_write_ps
        )
        self.submit(duration, sketch.clear)

    def clear_register(self, register) -> None:
        """Clear a register array over the control path."""
        duration = self.config.rtt_ps + register.size * self.config.per_entry_write_ps
        self.submit(duration, register.clear)

    def update_table(self, fn: Callable[[], None], entries: int = 1) -> None:
        """Apply a table mutation over the control path.

        ``fn`` must be a closure over the table's *mutating API*
        (``insert`` / ``remove`` / ``set_default`` / ``update_action``)
        — those bump the table's generation counter, which is what
        invalidates any flow-cache entries and compiled walks recorded
        against the old contents.  Mutating a stored action object in
        place bypasses that; never do that.
        """
        duration = self.config.rtt_ps + entries * self.config.per_entry_write_ps
        self.table_updates += 1
        self.submit(duration, fn)

    def install_route(self, action: Callable[[], None], entries: int = 1) -> None:
        """Recompute and install routes after a failure notification."""
        duration = (
            self.config.reroute_compute_ps
            + self.config.rtt_ps
            + entries * self.config.per_entry_write_ps
        )
        self.submit(duration, action)

    def receive_digest(self, message: Dict[str, int]) -> None:
        """Sink for switch digests (wire to ``switch.set_cpu_callback``)."""
        self.digests_received.append(dict(message))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        duration, action = self._queue.popleft()
        self.busy_time_ps += duration
        self.sim.call_after(duration, self._finish, action)

    def _finish(self, action: Callable[[], None]) -> None:
        self._busy = False
        action()
        self.operations_completed += 1
        self._pump()

    def utilization(self, duration_ps: int) -> float:
        """Fraction of ``duration_ps`` the controller spent busy."""
        if duration_ps <= 0:
            raise ValueError(f"duration must be positive, got {duration_ps}")
        return min(1.0, self.busy_time_ps / duration_ps)

    @property
    def backlog(self) -> int:
        """Queued operations not yet started."""
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"ControlPlane({self.name!r}, done={self.operations_completed}, "
            f"backlog={self.backlog})"
        )
