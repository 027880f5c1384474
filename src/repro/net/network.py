"""Wiring switches, hosts, and links into a network.

:class:`Network` owns the simulator, the nodes, and the links.  It
routes each switch's transmit callback to the right link by output
port and exposes name-level views of the wiring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.base import SwitchBase
from repro.net.host import Host
from repro.net.link import Link
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator


class _SwitchTx:
    """A switch's transmit callback: route to the link on that port.

    A named class (not a closure) so a wired network stays picklable
    for whole-simulator checkpoints.
    """

    __slots__ = ("network", "switch")

    def __init__(self, network: "Network", switch: SwitchBase) -> None:
        self.network = network
        self.switch = switch

    def __call__(self, pkt: Packet, port: int) -> None:
        link = self.network._switch_port_links.get((self.switch.name, port))
        if link is None:
            return  # unconnected port: packet leaves the simulation
        link.transmit_from(self.switch, pkt)

    def __getstate__(self):
        return (self.network, self.switch)

    def __setstate__(self, state) -> None:
        self.network, self.switch = state


class Network:
    """A simulated network of switches, hosts, and links."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.switches: Dict[str, SwitchBase] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        # (switch name, port) -> link
        self._switch_port_links: Dict[Tuple[str, int], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, switch: SwitchBase) -> SwitchBase:
        """Register a switch and wire its transmit path."""
        if switch.name in self.switches:
            raise ValueError(f"duplicate switch name {switch.name!r}")
        self.switches[switch.name] = switch
        switch.set_tx_callback(_SwitchTx(self, switch))
        return switch

    def add_host(self, host: Host) -> Host:
        """Register a host."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        return host

    def connect(
        self,
        node_a,
        port_a: int,
        node_b,
        port_b: int,
        latency_ps: int = 1_000_000,
        name: Optional[str] = None,
    ) -> Link:
        """Create a link between two registered nodes."""
        link_name = name or f"{self._node_name(node_a)}:{port_a}-{self._node_name(node_b)}:{port_b}"
        link = Link(self.sim, node_a, port_a, node_b, port_b, latency_ps, link_name)
        self.links.append(link)
        for node, port in ((node_a, port_a), (node_b, port_b)):
            if isinstance(node, SwitchBase):
                key = (node.name, port)
                if key in self._switch_port_links:
                    raise ValueError(f"switch port {key} already connected")
                self._switch_port_links[key] = link
            elif isinstance(node, Host):
                node.attach_link(link)
            else:
                raise TypeError(f"cannot connect node of type {type(node)}")
        return link

    def attach_boundary(self, node, port: int, link: Link) -> Link:
        """Register a link whose far end lives outside this network.

        The shard engine's entry point: ``link`` is typically a
        :class:`~repro.sim.shard.BoundaryLink` proxy already carrying
        both endpoints, so only the local side is wired — the switch
        transmit map or the host NIC — and no second endpoint is
        touched.  ``node`` must already be registered here.
        """
        self.links.append(link)
        if isinstance(node, SwitchBase):
            if node.name not in self.switches:
                raise ValueError(f"unknown switch {node.name!r}")
            key = (node.name, port)
            if key in self._switch_port_links:
                raise ValueError(f"switch port {key} already connected")
            self._switch_port_links[key] = link
        elif isinstance(node, Host):
            if node.name not in self.hosts:
                raise ValueError(f"unknown host {node.name!r}")
            node.attach_link(link)
        else:
            raise TypeError(f"cannot attach node of type {type(node)}")
        return link

    def _node_name(self, node) -> str:
        return getattr(node, "name", repr(node))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def link_between(self, name_a: str, name_b: str) -> Optional[Link]:
        """The first link joining two named nodes, or None."""
        for link in self.links:
            ends = {self._node_name(link.node_a), self._node_name(link.node_b)}
            if ends == {name_a, name_b}:
                return link
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Advance the shared simulator."""
        return self.sim.run(until_ps=until_ps, max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"Network({len(self.switches)} switches, {len(self.hosts)} hosts, "
            f"{len(self.links)} links)"
        )
