"""Equal-cost route computation over a topology spec.

:func:`ecmp_routes` and :func:`ecmp_candidates` compute routes from a
pure :class:`~repro.net.topology.TopologySpec`, not from a realized
network: sharded workers only hold their local slice of one.  Every
worker (and the serial reference run) derives byte-identical forwarding
tables from the same spec — route choice is part of the deterministic
behavior contract.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from repro.net.topology import TopologySpec


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
