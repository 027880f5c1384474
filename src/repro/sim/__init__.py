"""Discrete-event simulation kernel.

Everything in the reproduction runs on top of this kernel: the PISA
pipelines, the traffic manager, the timer units, the network links, and
the hosts all schedule callbacks on a single shared :class:`Simulator`.

Time is kept as integer **picoseconds** so that rate and latency
arithmetic stays exact (1 GbE bit time = 1000 ps, a 64-byte frame at
10 Gb/s = 51_200 ps, a 200 MHz FPGA clock cycle = 5_000 ps).
"""

from repro.sim.kernel import Simulator, ScheduledEvent, SimulationError
from repro.sim.process import PeriodicProcess
from repro.sim.rng import SeededRng
from repro.sim.units import (
    GIGAHERTZ,
    MICROSECONDS,
    MILLISECONDS,
    NANOSECONDS,
    PICOSECONDS,
    SECONDS,
    bits_to_time_ps,
    bytes_to_time_ps,
    time_ps_to_seconds,
)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "PeriodicProcess",
    "SeededRng",
    "PICOSECONDS",
    "NANOSECONDS",
    "MICROSECONDS",
    "MILLISECONDS",
    "SECONDS",
    "GIGAHERTZ",
    "bits_to_time_ps",
    "bytes_to_time_ps",
    "time_ps_to_seconds",
]
