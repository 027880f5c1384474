"""Time and rate units used throughout the simulator.

The kernel's clock is an integer number of picoseconds.  These helpers
convert between human units (nanoseconds, Gb/s, clock frequencies) and
the kernel's integer picosecond domain without accumulating floating
point error on the hot path.
"""

from __future__ import annotations

#: One picosecond — the base unit of simulated time.
PICOSECONDS = 1
#: One nanosecond in picoseconds.
NANOSECONDS = 1_000
#: One microsecond in picoseconds.
MICROSECONDS = 1_000_000
#: One millisecond in picoseconds.
MILLISECONDS = 1_000_000_000
#: One second in picoseconds.
SECONDS = 1_000_000_000_000

#: One gigahertz expressed as a clock period in picoseconds.
GIGAHERTZ = 1_000


def bits_to_time_ps(bits: int, rate_gbps: float) -> int:
    """Serialization time in picoseconds of ``bits`` at ``rate_gbps`` Gb/s.

    The result is rounded up: a packet is not done transmitting until its
    final bit has left the wire.
    """
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    # bits / (rate_gbps Gb/s) = bits * 1000 / rate_gbps picoseconds.
    numerator = bits * 1_000
    denominator = rate_gbps
    ticks = numerator / denominator
    return int(-(-ticks // 1))  # ceil for floats without math.ceil import


def bytes_to_time_ps(nbytes: int, rate_gbps: float) -> int:
    """Serialization time in picoseconds of ``nbytes`` at ``rate_gbps`` Gb/s."""
    return bits_to_time_ps(nbytes * 8, rate_gbps)


def clock_period_ps(freq_mhz: float) -> int:
    """Clock period in picoseconds of a ``freq_mhz`` MHz clock."""
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz}")
    return int(round(1_000_000 / freq_mhz))


def time_ps_to_seconds(time_ps: int) -> float:
    """Convert integer picoseconds to float seconds (for reporting only)."""
    return time_ps / SECONDS
