"""Topology builders.

Each builder assembles a :class:`~repro.net.network.Network` from a
caller-supplied *switch factory* — ``factory(sim, name, port_count)`` —
so the same topology can be instantiated with baseline PSA switches,
logical event-driven switches, or SUME Event Switches for side-by-side
experiments.

Datacenter-scale fabrics additionally exist as pure-data
:class:`TopologySpec` values (:func:`leaf_spine_spec`,
:func:`fat_tree_spec`): a spec describes every node and link without
instantiating anything, so the sharded engine can partition it
(:func:`partition_spec`), ship the pieces to worker processes, and have
each worker :func:`realize` only its own shard.  :func:`realize` on the
full spec and a shard-wise realization of the same spec are
behaviorally identical by construction — they wire the same names,
ports, and latencies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.arch.base import SwitchBase
from repro.arch.description import ArchitectureDescription
from repro.net.host import Host
from repro.net.network import Network
from repro.sim.kernel import Simulator

SwitchFactory = Callable[[Simulator, str, int], SwitchBase]


def with_ports(description: ArchitectureDescription, port_count: int) -> ArchitectureDescription:
    """A copy of ``description`` with a different port count."""
    return dataclasses.replace(description, port_count=port_count)


def _host_ip(index: int) -> int:
    """10.0.x.y addressing for generated hosts."""
    return 0x0A00_0000 + index + 1


# ----------------------------------------------------------------------
# Pure-data topology specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeSpec:
    """One node of a :class:`TopologySpec` (no simulator objects)."""

    name: str
    kind: str  # "switch" | "host"
    port_count: int = 1
    ip: int = 0  # hosts only


@dataclass(frozen=True)
class LinkSpec:
    """One link of a :class:`TopologySpec`; endpoints are node names."""

    node_a: str
    port_a: int
    node_b: str
    port_b: int
    latency_ps: int = 1_000_000

    @property
    def name(self) -> str:
        return f"{self.node_a}:{self.port_a}-{self.node_b}:{self.port_b}"

    def other_end(self, node: str) -> Tuple[str, int]:
        """(peer name, peer port) opposite ``node``."""
        if node == self.node_a:
            return self.node_b, self.port_b
        if node == self.node_b:
            return self.node_a, self.port_a
        raise ValueError(f"{node!r} is not an endpoint of {self.name!r}")


@dataclass
class TopologySpec:
    """A whole fabric as data: nodes, links, and builder metadata.

    ``nodes`` preserves insertion order (realization order), ``meta``
    carries builder facts the partitioner and routing helpers use —
    e.g. ``{"kind": "fattree", "k": 8, "pod_of": {name: pod|None}}``.
    Specs are plain picklable data, so shard workers rebuild their
    slice of the fabric from the same spec the coordinator partitioned.
    """

    name: str
    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    links: List[LinkSpec] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def add_switch(self, name: str, port_count: int) -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        self.nodes[name] = NodeSpec(name, "switch", port_count)

    def add_host(self, name: str, ip: int) -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        self.nodes[name] = NodeSpec(name, "host", 1, ip)

    def add_link(
        self, node_a: str, port_a: int, node_b: str, port_b: int, latency_ps: int
    ) -> None:
        for node in (node_a, node_b):
            if node not in self.nodes:
                raise ValueError(f"link references unknown node {node!r}")
        self.links.append(LinkSpec(node_a, port_a, node_b, port_b, latency_ps))

    def switch_names(self) -> List[str]:
        return [n for n, spec in self.nodes.items() if spec.kind == "switch"]

    def host_names(self) -> List[str]:
        return [n for n, spec in self.nodes.items() if spec.kind == "host"]

    def host_ips(self) -> Dict[str, int]:
        """host name → IP for every host in the spec."""
        return {
            n: spec.ip for n, spec in self.nodes.items() if spec.kind == "host"
        }

    def links_of(self, node: str) -> List[LinkSpec]:
        return [l for l in self.links if node in (l.node_a, l.node_b)]

    def __repr__(self) -> str:
        return (
            f"TopologySpec({self.name!r}, "
            f"{len(self.switch_names())} switches, "
            f"{len(self.host_names())} hosts, {len(self.links)} links)"
        )


def realize(
    spec: TopologySpec,
    factory: SwitchFactory,
    sim: Optional[Simulator] = None,
    only_nodes: Optional[Iterable[str]] = None,
) -> Network:
    """Instantiate (part of) a :class:`TopologySpec` as a live Network.

    ``only_nodes`` restricts realization to a node subset — the shard
    worker's path: nodes outside the subset are not built, and links
    with exactly one endpoint inside are *skipped* (the caller wires
    boundary proxies for them; see :mod:`repro.sim.shard`).  With
    ``only_nodes=None`` the whole spec is built.
    """
    local = set(spec.nodes) if only_nodes is None else set(only_nodes)
    unknown = local - set(spec.nodes)
    if unknown:
        raise ValueError(f"unknown node(s) in subset: {sorted(unknown)}")
    network = Network(sim)
    for name, node in spec.nodes.items():
        if name not in local:
            continue
        if node.kind == "switch":
            network.add_switch(factory(network.sim, name, node.port_count))
        else:
            network.add_host(Host(network.sim, name, node.ip))
    nodes_by_name = {**network.switches, **network.hosts}
    for link in spec.links:
        if link.node_a in local and link.node_b in local:
            network.connect(
                nodes_by_name[link.node_a],
                link.port_a,
                nodes_by_name[link.node_b],
                link.port_b,
                latency_ps=link.latency_ps,
            )
    return network


def build_linear(
    factory: SwitchFactory,
    switch_count: int = 3,
    link_latency_ps: int = 1_000_000,
    sim: Simulator = None,
) -> Network:
    """A chain: host h0 — s0 — s1 — … — s(n−1) — host h1.

    Switch ports: 0 faces the previous hop, 1 the next hop.
    """
    if switch_count < 1:
        raise ValueError(f"need at least one switch, got {switch_count}")
    network = Network(sim)
    switches = [
        network.add_switch(factory(network.sim, f"s{i}", 2)) for i in range(switch_count)
    ]
    h0 = network.add_host(Host(network.sim, "h0", _host_ip(0)))
    h1 = network.add_host(Host(network.sim, "h1", _host_ip(1)))
    network.connect(h0, 0, switches[0], 0, latency_ps=link_latency_ps)
    for left, right in zip(switches, switches[1:]):
        network.connect(left, 1, right, 0, latency_ps=link_latency_ps)
    network.connect(switches[-1], 1, h1, 0, latency_ps=link_latency_ps)
    return network


def build_dumbbell(
    factory: SwitchFactory,
    senders: int = 4,
    receivers: int = 1,
    link_latency_ps: int = 1_000_000,
    sim: Simulator = None,
) -> Network:
    """The classic dumbbell: N senders → s0 — s1 → M receivers.

    The s0→s1 link is the bottleneck.  Sender hosts are ``tx0..``,
    receivers ``rx0..``.  On s0, port 0 faces s1 and ports 1.. face the
    senders; on s1, port 0 faces s0 and ports 1.. face receivers.
    """
    if senders < 1 or receivers < 1:
        raise ValueError("need at least one sender and one receiver")
    network = Network(sim)
    s0 = network.add_switch(factory(network.sim, "s0", senders + 1))
    s1 = network.add_switch(factory(network.sim, "s1", receivers + 1))
    network.connect(s0, 0, s1, 0, latency_ps=link_latency_ps)
    for i in range(senders):
        host = network.add_host(Host(network.sim, f"tx{i}", _host_ip(i)))
        network.connect(host, 0, s0, i + 1, latency_ps=link_latency_ps)
    for i in range(receivers):
        host = network.add_host(Host(network.sim, f"rx{i}", _host_ip(100 + i)))
        network.connect(host, 0, s1, i + 1, latency_ps=link_latency_ps)
    return network


@dataclass
class LeafSpine:
    """A built leaf-spine fabric and its wiring maps."""

    network: Network
    leaves: List[SwitchBase]
    spines: List[SwitchBase]
    hosts: Dict[str, List[Host]] = field(default_factory=dict)
    #: leaf name -> list of spine-facing ports (index = spine index).
    uplink_ports: Dict[str, List[int]] = field(default_factory=dict)
    #: spine name -> list of leaf-facing ports (index = leaf index).
    downlink_ports: Dict[str, List[int]] = field(default_factory=dict)
    #: leaf name -> first host-facing port.
    host_port_base: Dict[str, int] = field(default_factory=dict)


def leaf_spine_spec(
    leaf_count: int = 2,
    spine_count: int = 2,
    hosts_per_leaf: int = 2,
    link_latency_ps: int = 1_000_000,
) -> TopologySpec:
    """The leaf-spine fabric as pure data (see :func:`build_leaf_spine`).

    Names, ports, and wiring order match :func:`build_leaf_spine`
    exactly — that builder is just ``realize`` over this spec.
    """
    if leaf_count < 1:
        raise ValueError(f"need at least one leaf switch, got {leaf_count}")
    if spine_count < 1:
        raise ValueError(f"need at least one spine switch, got {spine_count}")
    if hosts_per_leaf < 1:
        raise ValueError(f"need at least one host per leaf, got {hosts_per_leaf}")
    if link_latency_ps <= 0:
        raise ValueError(f"link latency must be positive, got {link_latency_ps}")
    spec = TopologySpec(
        name=f"leafspine-{leaf_count}x{spine_count}",
        meta={
            "kind": "leafspine",
            "leaf_count": leaf_count,
            "spine_count": spine_count,
            "hosts_per_leaf": hosts_per_leaf,
        },
    )
    for i in range(leaf_count):
        spec.add_switch(f"leaf{i}", spine_count + hosts_per_leaf)
    for j in range(spine_count):
        spec.add_switch(f"spine{j}", leaf_count)
    pod_of: Dict[str, Optional[int]] = {f"spine{j}": None for j in range(spine_count)}
    for leaf_index in range(leaf_count):
        pod_of[f"leaf{leaf_index}"] = leaf_index
        for spine_index in range(spine_count):
            spec.add_link(
                f"leaf{leaf_index}", spine_index,
                f"spine{spine_index}", leaf_index,
                link_latency_ps,
            )
        for host_index in range(hosts_per_leaf):
            host = f"h{leaf_index}_{host_index}"
            spec.add_host(host, _host_ip(leaf_index * hosts_per_leaf + host_index))
            spec.add_link(
                host, 0,
                f"leaf{leaf_index}", spine_count + host_index,
                link_latency_ps,
            )
            pod_of[host] = leaf_index
    spec.meta["pod_of"] = pod_of
    return spec


def build_leaf_spine(
    factory: SwitchFactory,
    leaf_count: int = 2,
    spine_count: int = 2,
    hosts_per_leaf: int = 2,
    link_latency_ps: int = 1_000_000,
    sim: Simulator = None,
) -> LeafSpine:
    """A leaf-spine fabric (the HULA evaluation topology shape).

    Leaf ports 0..spine_count−1 are uplinks (port j to spine j); ports
    spine_count.. face hosts.  Spine ports 0..leaf_count−1 face leaves
    (port i to leaf i).  Hosts are named ``h<leaf>_<i>``.  Degenerate
    parameters (zero leaves, spines, or hosts) raise ``ValueError``.
    """
    spec = leaf_spine_spec(
        leaf_count=leaf_count,
        spine_count=spine_count,
        hosts_per_leaf=hosts_per_leaf,
        link_latency_ps=link_latency_ps,
    )
    network = realize(spec, factory, sim=sim)
    leaves = [network.switches[f"leaf{i}"] for i in range(leaf_count)]
    spines = [network.switches[f"spine{j}"] for j in range(spine_count)]
    fabric = LeafSpine(network=network, leaves=leaves, spines=spines)
    for leaf_index, leaf in enumerate(leaves):
        fabric.uplink_ports[leaf.name] = list(range(spine_count))
        fabric.host_port_base[leaf.name] = spine_count
        fabric.hosts[leaf.name] = [
            network.hosts[f"h{leaf_index}_{host_index}"]
            for host_index in range(hosts_per_leaf)
        ]
    for spine in spines:
        fabric.downlink_ports[spine.name] = list(range(leaf_count))
    return fabric


# ----------------------------------------------------------------------
# k-ary fat tree (Al-Fahoum/Clos parameterization used by P4-era fabrics)
# ----------------------------------------------------------------------
def fat_tree_spec(k: int = 4, link_latency_ps: int = 1_000_000) -> TopologySpec:
    """A k-ary fat tree as pure data.

    ``k`` pods of ``k/2`` edge and ``k/2`` aggregation switches each,
    ``(k/2)^2`` core switches, and ``k/2`` hosts per edge switch:
    ``5k^2/4`` switches and ``k^3/4`` hosts total (k=8 → 80 switches,
    128 hosts).  Port conventions:

    * edge ``edge<p>_<e>``: ports 0..k/2−1 face aggs (port a → agg a),
      ports k/2..k−1 face hosts;
    * agg ``agg<p>_<a>``: ports 0..k/2−1 face edges (port e → edge e),
      ports k/2..k−1 face core group a (port k/2+j → core a*(k/2)+j);
    * core ``core<c>``: port p faces pod p.

    Hosts are ``h<p>_<e>_<i>``.  ``k`` must be even and ≥ 2.
    """
    if k < 2:
        raise ValueError(f"fat-tree arity k must be >= 2, got {k}")
    if k % 2:
        raise ValueError(f"fat-tree arity k must be even, got {k}")
    if link_latency_ps <= 0:
        raise ValueError(f"link latency must be positive, got {link_latency_ps}")
    half = k // 2
    spec = TopologySpec(name=f"fattree-k{k}", meta={"kind": "fattree", "k": k})
    pod_of: Dict[str, Optional[int]] = {}
    for p in range(k):
        for e in range(half):
            spec.add_switch(f"edge{p}_{e}", k)
            pod_of[f"edge{p}_{e}"] = p
        for a in range(half):
            spec.add_switch(f"agg{p}_{a}", k)
            pod_of[f"agg{p}_{a}"] = p
    for c in range(half * half):
        spec.add_switch(f"core{c}", k)
        pod_of[f"core{c}"] = None
    # Pod-internal full mesh: edge e port a ↔ agg a port e.
    for p in range(k):
        for e in range(half):
            for a in range(half):
                spec.add_link(
                    f"edge{p}_{e}", a, f"agg{p}_{a}", e, link_latency_ps
                )
    # Core layer: agg a of every pod reaches core group a.
    for p in range(k):
        for a in range(half):
            for j in range(half):
                spec.add_link(
                    f"agg{p}_{a}", half + j,
                    f"core{a * half + j}", p,
                    link_latency_ps,
                )
    # Hosts: k/2 per edge switch, globally indexed IPs.
    host_index = 0
    for p in range(k):
        for e in range(half):
            for i in range(half):
                host = f"h{p}_{e}_{i}"
                spec.add_host(host, _host_ip(host_index))
                spec.add_link(host, 0, f"edge{p}_{e}", half + i, link_latency_ps)
                pod_of[host] = p
                host_index += 1
    spec.meta["pod_of"] = pod_of
    return spec


# Partitioning lives in repro.net.partition; re-exported here because
# the topology module is the natural place callers look for it.
from repro.net.partition import Partition, partition_spec  # noqa: E402

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "TopologySpec",
    "realize",
    "with_ports",
    "build_linear",
    "build_dumbbell",
    "LeafSpine",
    "leaf_spine_spec",
    "build_leaf_spine",
    "fat_tree_spec",
    "Partition",
    "partition_spec",
]
