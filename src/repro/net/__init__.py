"""Network substrate: links, hosts, topologies, and routing.

Multi-switch applications (HULA load balancing, fast re-route, liveness
monitoring) need a network around the switch: links with bandwidth,
propagation delay and failures; hosts that source and sink traffic; and
topology builders with route computation.  Everything runs on the same
shared :class:`~repro.sim.kernel.Simulator` as the switches.
"""

from repro.net.link import Link
from repro.net.host import Host
from repro.net.network import Network
from repro.net.reliable import ReliableReceiver, ReliableSender
from repro.net.topology import (
    build_dumbbell,
    build_leaf_spine,
    build_linear,
    LeafSpine,
)

__all__ = [
    "Link",
    "Host",
    "Network",
    "ReliableSender",
    "ReliableReceiver",
    "build_linear",
    "build_dumbbell",
    "build_leaf_spine",
    "LeafSpine",
]
