"""Invariant monitors the chaos harness attaches to every run.

Three monitors, matching the three failure classes fault injection can
expose:

* :class:`PacketConservationMonitor` — every packet a link accepted is
  in exactly one of delivered / lost / corrupted / in-flight, exactly,
  per link, at any instant (so packet duplication or vanishing anywhere
  in the net layer is caught even mid-drain).
* :class:`ReconvergenceMonitor` — sink-side arrival log; measures how
  long after the last fault action traffic resumed.  A measurement, not
  an invariant: some scenarios legitimately stay dark (budget
  exhausted, route never repaired).
* :class:`FlowCacheCoherenceMonitor` — aggregates flow-cache counters
  and runs the eager :meth:`~repro.pisa.flowcache.FlowCache.verify_entries`
  sweep.  Under control-plane churn a cache that served hits must also
  show invalidations or revalidations (every churn bumps route
  generations, and each stale entry is evicted or revalidated), and
  after a full sweep a second sweep must find nothing — stale entries
  can be *resident* (lazily evicted) but never *served*.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class PacketConservationMonitor:
    """Exact per-link packet accounting across the whole network."""

    def __init__(self, network) -> None:
        self.network = network

    def check(self) -> List[str]:
        """Violation messages (empty = every link ledger balances)."""
        violations: List[str] = []
        for link in self.network.links:
            ledger = link.conservation_ledger()
            accounted = (
                ledger["delivered"]
                + ledger["lost"]
                + ledger["corrupted"]
                + ledger["in_flight"]
            )
            if ledger["tx"] != accounted:
                violations.append(
                    f"conservation:{link.name}: tx={ledger['tx']} != "
                    f"delivered+lost+corrupted+in_flight={accounted} ({ledger})"
                )
            if min(ledger.values()) < 0:
                violations.append(
                    f"conservation:{link.name}: negative counter ({ledger})"
                )
        return violations

    def totals(self) -> Dict[str, int]:
        """Network-wide ledger sums (for the verdict record)."""
        totals = {"tx": 0, "delivered": 0, "lost": 0, "corrupted": 0, "in_flight": 0}
        for link in self.network.links:
            for key, value in link.conservation_ledger().items():
                totals[key] += value
        return totals


class ReconvergenceMonitor:
    """Sink arrival log + time-to-resume measurement."""

    def __init__(self, sim, host) -> None:
        self.sim = sim
        self.arrivals: List[int] = []
        host.add_sink(self._on_arrival)

    def _on_arrival(self, pkt) -> None:
        self.arrivals.append(self.sim.now_ps)

    def reconvergence_ps(self, after_ps: int) -> Optional[int]:
        """Delay from ``after_ps`` to the first later arrival, or None."""
        if after_ps < 0:
            return None
        for time_ps in self.arrivals:
            if time_ps >= after_ps:
                return time_ps - after_ps
        return None

    def max_gap_ps(self) -> int:
        """The largest inter-arrival gap seen at the sink."""
        gap = 0
        for before, after in zip(self.arrivals, self.arrivals[1:]):
            gap = max(gap, after - before)
        return gap


class FlowCacheCoherenceMonitor:
    """Flow-cache counters + the eager stale-entry sweep."""

    def __init__(self, caches) -> None:
        self.caches = list(caches)
        self.swept = 0

    def sweep(self) -> int:
        """Purge stale entries everywhere; returns how many were purged."""
        purged = sum(cache.verify_entries() for cache in self.caches)
        self.swept += purged
        return purged

    def totals(self) -> Dict[str, int]:
        """Aggregated cache counters (including sweep-purged entries)."""
        totals = {
            "hits": 0,
            "misses": 0,
            "uncacheable": 0,
            "invalidations": 0,
            "evictions": 0,
            "revalidated": 0,
        }
        for cache in self.caches:
            stats = cache.stats
            for key in totals:
                totals[key] += getattr(stats, key)
        totals["swept"] = self.swept
        return totals

    def check(self, churned: bool) -> List[str]:
        """Violations after a completed run.

        Runs the final sweep, asserts it converges (a second sweep finds
        nothing), and — when the plan included control-plane churn —
        that a cache which served hits also re-examined entries: churn
        bumps every route generation, so every stale entry is either
        evicted (``invalidations``) or kept by
        :meth:`~repro.pisa.flowcache.FlowCache.revalidate`
        (``revalidated``), and neither alongside hits would mean a
        recorded decision outlived a table mutation unexamined.
        """
        if not self.caches:
            return []
        violations: List[str] = []
        self.sweep()
        residual = self.sweep()
        if residual:
            violations.append(
                f"flowcache: verify_entries left {residual} stale entries "
                "after a full sweep"
            )
        if churned:
            totals = self.totals()
            examined = totals["invalidations"] + totals["revalidated"]
            if totals["hits"] > 0 and examined == 0:
                violations.append(
                    f"flowcache: {totals['hits']} hits but no entry evicted or "
                    "revalidated under control-plane churn (stale entries "
                    "survived)"
                )
        return violations
