"""Host-speed reference: what makes a timing comparable between runs.

The authoring host (2 shared cores) changes speed by 30% and more every
few seconds.  Ten runs of one workload spread 15-30% (interquartile range
over median) on raw wall time, whatever statistic of the reps was taken —
median, mean or best — because a 2 s rep sits inside one spell of the
host and a 10 s run sees only a few spells.  Timing a fixed pure-Python
loop between ~20 ms slices of the same run and scaling each slice by it
brought the spread to 2-3% (microburst_sume, chain_paced, fabric_zipf, 14
runs each), so that is what ``child.py`` does.

The loop below never changes and imports nothing from ``repro``: it moves
with the host, never with the code under test.  A timing scaled by it is
"seconds on a host where the loop takes :data:`NOMINAL_S`" — close to
plain seconds on the authoring host, whose median it is.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

#: Iterations of the reference loop (~2 ms: short next to a slice of work,
#: long next to timer resolution).
REF_ITERS = 16_000
#: The loop's median duration on the authoring host.
NOMINAL_S = 0.002

_TABLE = {i: i * 7919 for i in range(1024)}
_RING = [0] * 256


def sample() -> float:
    """Seconds the reference loop takes right now.

    Dict reads, list writes and big-int arithmetic — the interpreter's
    staple diet — but nothing the cyclic collector tracks, so a sample
    never triggers a collection and never depends on how large a heap the
    workload has built.
    """
    table, ring, acc = _TABLE, _RING, 0
    started = perf_counter()
    for i in range(REF_ITERS):
        acc += table[i & 1023] ^ i
        ring[i & 255] = acc & 0xFFFFFF
    return perf_counter() - started


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` as it would read on the nominal host, given the
    reference loop's time just before and just after it."""
    return wall_s * 2.0 * NOMINAL_S / (before_s + after_s)


class HostClock:
    """Times consecutive slices of work, raw and host-scaled.

    The reference is sampled once between slices, so each sample is the
    "after" of one slice and the "before" of the next.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.samples = [sample()]

    def time(self, fn: Callable[[], Any]) -> float:
        """Run one slice; returns its raw wall time."""
        started = perf_counter()
        fn()
        wall = perf_counter() - started
        self.samples.append(sample())
        self.raw_s += wall
        self.scaled_s += scaled(wall, self.samples[-2], self.samples[-1])
        return wall
