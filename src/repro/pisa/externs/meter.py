"""Meter extern: single-rate three-color token bucket (srTCM, RFC 2697).

Baseline PISA targets expose meters as fixed-function externs.  The
paper (§3, traffic management) argues that with timer events a
programmer can instead *build* a token bucket from plain registers and
customize it; :mod:`repro.apps.policing` does exactly that and the
emulation bench compares it against this fixed-function version.
"""

from __future__ import annotations

from enum import Enum
from typing import List

from repro.sim.units import SECONDS
from repro.state.store import StateStore, make_store


class MeterColor(Enum):
    """srTCM marking colors."""

    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


class Meter:
    """An indexed array of single-rate three-color token-bucket meters.

    Each index has a committed-information-rate ``cir_bps`` shared by all
    indices, a committed burst ``cbs_bytes``, and an excess burst
    ``ebs_bytes``.  Buckets are refilled lazily from the elapsed
    simulated time at each :meth:`execute` call — equivalent to
    continuous refill, without needing a background process.
    """

    def __init__(
        self,
        size: int,
        cir_bps: float,
        cbs_bytes: int,
        ebs_bytes: int = 0,
        name: str = "meter",
    ) -> None:
        if size <= 0:
            raise ValueError(f"meter size must be positive, got {size}")
        if cir_bps <= 0:
            raise ValueError(f"meter rate must be positive, got {cir_bps}")
        if cbs_bytes <= 0:
            raise ValueError(f"committed burst must be positive, got {cbs_bytes}")
        if ebs_bytes < 0:
            raise ValueError(f"excess burst must be non-negative, got {ebs_bytes}")
        self.size = size
        self.cir_bps = cir_bps
        self.cbs_bytes = cbs_bytes
        self.ebs_bytes = ebs_bytes
        self.name = name
        self._committed = make_store(size, float(cbs_bytes), name=f"{name}.committed")
        self._excess = make_store(size, float(ebs_bytes), name=f"{name}.excess")
        self._last_update_ps = make_store(size, 0, name=f"{name}.last_update")

    def execute(self, index: int, nbytes: int, now_ps: int) -> MeterColor:
        """Meter a packet of ``nbytes`` at simulated time ``now_ps``."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"meter {self.name!r} index {index} out of range [0, {self.size})"
            )
        self._refill(index, now_ps)
        if self._committed[index] >= nbytes:
            self._committed[index] -= nbytes
            return MeterColor.GREEN
        if self._excess[index] >= nbytes:
            self._excess[index] -= nbytes
            return MeterColor.YELLOW
        return MeterColor.RED

    def _refill(self, index: int, now_ps: int) -> None:
        elapsed_ps = now_ps - self._last_update_ps[index]
        if elapsed_ps <= 0:
            return
        self._last_update_ps[index] = now_ps
        refill_bytes = self.cir_bps * elapsed_ps / (8 * SECONDS)
        committed = self._committed[index] + refill_bytes
        if committed > self.cbs_bytes:
            # Overflow of the committed bucket spills into the excess bucket.
            spill = committed - self.cbs_bytes
            committed = float(self.cbs_bytes)
            self._excess[index] = min(self.ebs_bytes, self._excess[index] + spill)
        self._committed[index] = committed

    def tokens(self, index: int, now_ps: int) -> float:
        """Current committed-bucket level in bytes (after lazy refill)."""
        self._refill(index, now_ps)
        return self._committed[index]

    def stores(self) -> List[StateStore]:
        """The backing stores (for checkpoints and state manifests)."""
        return [self._committed, self._excess, self._last_update_ps]

    def __repr__(self) -> str:
        return (
            f"Meter({self.name!r}, size={self.size}, cir={self.cir_bps:.0f}bps, "
            f"cbs={self.cbs_bytes}B, ebs={self.ebs_bytes}B)"
        )
