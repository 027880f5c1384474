"""Synthetic workload generators.

The paper's evaluation workloads (testbed/student traffic) are not
available, so the benches drive the switches with synthetic equivalents
that exercise the same code paths: constant-bit-rate and Poisson
background traffic, ON/OFF microbursts, Zipf-popularity heavy-hitter
flow mixes, and incast fan-in.  All generators are seeded and
deterministic.
"""

from repro.workloads.base import FlowSpec, TrafficGenerator
from repro.workloads.cbr import ConstantBitRate
from repro.workloads.poisson import PoissonTraffic
from repro.workloads.bursts import OnOffBurst
from repro.workloads.zipf import ZipfFlowMix
from repro.workloads.incast import IncastWave
from repro.workloads.sink import LatencySink, PacketSink

__all__ = [
    "FlowSpec",
    "TrafficGenerator",
    "ConstantBitRate",
    "PoissonTraffic",
    "OnOffBurst",
    "ZipfFlowMix",
    "IncastWave",
    "PacketSink",
    "LatencySink",
]
