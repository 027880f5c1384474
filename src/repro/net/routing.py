"""Route computation over a :class:`~repro.net.network.Network`.

Two families of helpers.  :func:`shortest_path_ports`,
:func:`all_pairs_ports` and :func:`install_ip_routes` take shortest
paths from networkx over a realized network's graph and translate them
into the per-switch output ports that forwarding programs install in
their tables; networkx is imported only when one of them runs, so it is
not a runtime dependency.  :func:`ecmp_routes` and
:func:`ecmp_candidates` compute equal-cost routes from a pure
:class:`~repro.net.topology.TopologySpec` with a standard-library BFS.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.network import Network


def shortest_path_ports(
    network: Network, src: str, dst: str, avoid_down_links: bool = True
) -> List[Tuple[str, int]]:
    """Per-switch (switch name, output port) hops from ``src`` to ``dst``.

    ``src``/``dst`` are node names (hosts or switches).  When
    ``avoid_down_links`` is set, failed links are excluded — the route a
    control plane would compute after re-convergence.
    """
    import networkx as nx

    graph = network.graph()
    if avoid_down_links:
        dead = [
            (u, v) for u, v, data in graph.edges(data=True) if not data["link"].up
        ]
        graph.remove_edges_from(dead)
    path = nx.shortest_path(graph, src, dst, weight="latency_ps")
    hops: List[Tuple[str, int]] = []
    for here, nxt in zip(path, path[1:]):
        if here in network.switches:
            port = network.port_towards(here, nxt)
            if port is None:
                raise ValueError(f"no port from {here} towards {nxt}")
            hops.append((here, port))
    return hops


def all_pairs_ports(network: Network) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """Shortest-path hops for every (host, host) pair."""
    routes: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    names = sorted(network.hosts)
    for src in names:
        for dst in names:
            if src == dst:
                continue
            routes[(src, dst)] = shortest_path_ports(network, src, dst)
    return routes


def install_ip_routes(
    network: Network,
    forwarding_tables: Dict[str, Dict[int, int]],
) -> None:
    """Populate per-switch {dst_ip: port} dicts from shortest paths.

    ``forwarding_tables`` maps switch name → its (mutable) table; the
    helper fills each with an entry per destination host IP.
    """
    for (src, dst), hops in all_pairs_ports(network).items():
        dst_ip = network.hosts[dst].ip
        for switch_name, port in hops:
            table = forwarding_tables.get(switch_name)
            if table is not None:
                table[dst_ip] = port


# ---------------------------------------------------------------------------
# Spec-based ECMP routing
#
# The helpers above need a realized Network; sharded workers only hold
# their local slice of one, so ECMP routes are computed from the pure
# TopologySpec instead.  Every worker (and the serial reference run)
# derives byte-identical forwarding tables from the same spec — route
# choice is part of the deterministic behavior contract.
# ---------------------------------------------------------------------------

import zlib  # noqa: E402

from repro.net.topology import TopologySpec  # noqa: E402


def _spec_adjacency(spec: TopologySpec) -> Dict[str, List[Tuple[str, int]]]:
    """node -> sorted [(neighbor, local output port)] over spec links."""
    adj: Dict[str, List[Tuple[str, int]]] = {name: [] for name in spec.nodes}
    for link in spec.links:
        adj[link.node_a].append((link.node_b, link.port_a))
        adj[link.node_b].append((link.node_a, link.port_b))
    for entries in adj.values():
        entries.sort()
    return adj


def ecmp_candidates(spec: TopologySpec, switch: str) -> Dict[str, List[int]]:
    """Equal-cost next-hop ports from ``switch`` to every host.

    BFS distances from each destination host over the switch graph
    (hosts are never transited); a port is a candidate when its peer is
    strictly closer to the destination.  Candidate lists are sorted, so
    the multiplicity and order are deterministic.
    """
    adj = _spec_adjacency(spec)
    out: Dict[str, List[int]] = {}
    for host in spec.host_names():
        dist = _bfs_distances(spec, adj, host)
        here = dist.get(switch)
        if here is None:
            continue
        candidates = [
            port
            for peer, port in adj[switch]
            if dist.get(peer, here) < here
        ]
        out[host] = sorted(candidates)
    return out


def _bfs_distances(
    spec: TopologySpec,
    adj: Dict[str, List[Tuple[str, int]]],
    root: str,
) -> Dict[str, int]:
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt: List[str] = []
        for node in frontier:
            for peer, _port in adj[node]:
                if peer in dist or spec.nodes[peer].kind == "host":
                    continue
                dist[peer] = dist[node] + 1
                nxt.append(peer)
        frontier = nxt
    return dist


def ecmp_routes(spec: TopologySpec) -> Dict[str, Dict[int, int]]:
    """Deterministic ECMP forwarding tables {switch: {dst_ip: port}}.

    Among equal-cost candidate ports the choice is
    ``crc32(f"{switch}|{dst_ip}") % len(candidates)`` — stable across
    processes and Python versions, unlike builtin ``hash``, so shard
    workers and the serial reference install identical tables.

    One BFS per destination host fills every switch's entry, so the
    whole fabric routes in O(hosts × links).
    """
    adj = _spec_adjacency(spec)
    host_ips = spec.host_ips()
    switches = spec.switch_names()
    tables: Dict[str, Dict[int, int]] = {name: {} for name in switches}
    for host in spec.host_names():
        dist = _bfs_distances(spec, adj, host)
        dst_ip = host_ips[host]
        for switch in switches:
            here = dist.get(switch)
            if here is None:
                continue
            candidates = sorted(
                port
                for peer, port in adj[switch]
                if dist.get(peer, here) < here
            )
            if not candidates:
                continue
            pick = zlib.crc32(f"{switch}|{dst_ip}".encode()) % len(candidates)
            tables[switch][dst_ip] = candidates[pick]
    return tables
