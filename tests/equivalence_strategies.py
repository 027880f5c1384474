"""Random networks of L3 routers for accelerated-vs-reference properties.

The interpreted pipeline walk with every accelerator off is the
reference semantics; the flow cache, the pipeline specializer and the
flow fastpath may change only speed.  :func:`draws` is a ``hypothesis``
strategy over networks built only from the in-tree topology builders,
and :func:`outcome` runs one draw under one accelerator setting and
returns everything a property compares.

A draw is a plain JSON-able dict, so a failing property prints it and
``outcome(draw, arm)`` replays it.  Its keys:

* ``family``: ``chain`` (one host at each end), ``chain_multi`` (two or
  three at each end), ``chain_interior`` (hosts on middle switches too),
  ``ring``, ``tree``, ``leafspine`` or ``fattree`` (k=4);
* ``switches``, ``hosts`` (``[name, switch index]`` pairs) and, for a
  tree, ``parents`` (the parent of switch ``i + 1``); leaf-spine draws
  carry ``leaves``/``spines``/``hosts_per_leaf`` instead;
* ``latency_ps``, ``queue_bytes``, ``payload_len``;
* ``load``: ``paced`` (each host sends to one destination, at a seeded
  phase) or ``zipf`` (each packet to a ``SeededRng.zipf_index``
  destination), ``packets`` per host every ``gap_ps`` from ``start_ps``;
* ``faults``: ``None`` or a built-in ``FaultPlan`` name with the link,
  switch and burst port it defaults to;
* ``writes``: ``[time_ps, switch, host, action, value]`` route writes to
  the switch's ``L3Router`` (``dscp`` remark, ``repoint`` to a port,
  ``deny``, or ``reinstall``: the next hop as first installed, a write
  that changes nothing unless an earlier one did);
* ``observe``: ``None`` or ``[attach_ps, detach_ps]`` of an
  ``EventCounters`` observer on every bus.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Tuple

from hypothesis import strategies as st

from repro.apps.l3fwd import L3Router
from repro.control.plane import ControlPlane
from repro.experiments.factories import make_baseline_switch
from repro.faults.injector import FaultInjector
from repro.faults.plan import BUILTIN_PLANS, get_plan
from repro.faults.scenarios import CHAOS_CONTROL, Scenario
from repro.net.routing import ecmp_routes
from repro.net.topology import TopologySpec, fat_tree_spec, leaf_spine_spec, realize
from repro.obs.counters import EventCounters
from repro.packet.builder import make_udp_packet
from repro.sim.rng import SeededRng
from repro.sim.shard import attach_recorders

#: Accelerator settings, as explicit per-switch kwargs so the
#: ``REPRO_*`` environment cannot change them.  ``ref`` is the reference.
ARMS: Dict[str, Dict[str, bool]] = {
    "ref": dict(flow_cache=False, compile=False, fastpath=False),
    "compiled": dict(flow_cache=False, compile=True, fastpath=False),
    "cache": dict(flow_cache=True, compile=False, fastpath=False),
    "default": dict(flow_cache=True, compile=True, fastpath=True),
    "default_interp": dict(flow_cache=True, compile=False, fastpath=True),
}

CHAIN_FAMILIES = ("chain", "chain_multi", "chain_interior")
FAMILIES = CHAIN_FAMILIES + ("ring", "tree", "leafspine", "fattree")

_TABLES = ("acl", "routes", "nexthops")
_DROPS = ("non_ip_drops", "acl_drops", "unrouted_drops", "ttl_drops")


# ----------------------------------------------------------------------
# Draw -> network
# ----------------------------------------------------------------------
def topology(draw: Dict[str, Any]) -> TopologySpec:
    """The draw's fabric as a :class:`TopologySpec`."""
    family, latency = draw["family"], draw["latency_ps"]
    if family == "leafspine":
        return leaf_spine_spec(
            draw["leaves"], draw["spines"], draw["hosts_per_leaf"], latency
        )
    if family == "fattree":
        return fat_tree_spec(4, latency)
    n = draw["switches"]
    if family == "tree":
        edges = [(parent, i + 1) for i, parent in enumerate(draw["parents"])]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        if family == "ring":
            edges.append((n - 1, 0))
    ports = [0] * n
    wiring: List[Tuple[str, int, str, int]] = []
    for a, b in edges:
        wiring.append((f"s{a}", ports[a], f"s{b}", ports[b]))
        ports[a] += 1
        ports[b] += 1
    for name, s in draw["hosts"]:
        wiring.append((name, 0, f"s{s}", ports[s]))
        ports[s] += 1
    spec = TopologySpec(family)
    for i in range(n):
        spec.add_switch(f"s{i}", ports[i])
    for j, (name, _s) in enumerate(draw["hosts"]):
        spec.add_host(name, 0x0A00_0001 + j)
    for a, port_a, b, port_b in wiring:
        spec.add_link(a, port_a, b, port_b, latency)
    return spec


def _schedule_load(draw, spec: TopologySpec, network) -> int:
    """Queue every host's sends; returns when the last one leaves."""
    load = draw["load"]
    ips = spec.host_ips()
    hosts = spec.host_names()
    gap, packets = load["gap_ps"], load["packets"]
    last = 0
    for sender in hosts:
        rng = SeededRng(load["seed"], sender)
        candidates = [h for h in hosts if h != sender]
        start = load["start_ps"]
        if load["kind"] == "paced":
            fixed = candidates[rng.randint(0, len(candidates) - 1)]
            start += rng.randint(0, gap - 1)
        for i in range(packets):
            if load["kind"] == "paced":
                dst = fixed
            else:
                dst = candidates[rng.zipf_index(len(candidates), load["skew"])]
            t = start + i * gap
            network.sim.call_at(
                t,
                network.hosts[sender].send,
                make_udp_packet(
                    ips[sender], ips[dst], payload_len=draw["payload_len"], ts_ps=t
                ),
            )
            last = max(last, t)
    return last


def _route_write(program: L3Router, table: Dict[int, int], ip, action, value):
    nh = sorted(table).index(ip)
    if action == "dscp":
        program.add_next_hop(nh, table[ip], dscp=value)
    elif action == "reinstall":
        program.add_next_hop(nh, table[ip])
    elif action == "repoint":
        ports = sorted(set(table.values()))
        program.add_next_hop(nh, ports[value % len(ports)])
    else:
        program.deny_flow(dst=ip, dst_mask=0xFFFF_FFFF)


def _set_observed(buses, counters: List[EventCounters], on: bool) -> None:
    for bus, observer in zip(buses, counters):
        (bus.add_observer if on else bus.remove_observer)(observer)


def build(draw: Dict[str, Any], **switch_kwargs):
    """The draw as a live network with its load and events scheduled;
    returns ``(network, recorders)``."""
    spec = topology(draw)
    factory = make_baseline_switch(
        queue_capacity_bytes=draw["queue_bytes"], **switch_kwargs
    )
    network = realize(spec, factory)
    tables = ecmp_routes(spec)
    for name, switch in network.switches.items():
        program = L3Router()
        program.install_host_routes(tables[name])
        switch.load_program(program)
    recorders = attach_recorders(network)
    duration = _schedule_load(draw, spec, network)
    ips = spec.host_ips()
    sim = network.sim
    for time_ps, name, host, action, value in draw["writes"]:
        switch = network.switches[name]
        sim.call_at(
            time_ps, _route_write, switch.program, tables[name], ips[host], action,
            value,
        )
    if draw["observe"] is not None:
        buses = [network.switches[name].bus for name in sorted(network.switches)]
        counters = [EventCounters() for _ in buses]
        attach_ps, detach_ps = draw["observe"]
        sim.call_at(attach_ps, _set_observed, buses, counters, True)
        sim.call_at(detach_ps, _set_observed, buses, counters, False)
    faults = draw["faults"]
    if faults is not None:
        scenario = Scenario(
            name=draw["family"],
            network=network,
            duration_ps=duration,
            sink=network.hosts[spec.host_names()[0]],
            default_link=tuple(faults["link"]),
            default_switch=faults["switch"],
            burst=tuple(faults["burst"]),
            control=ControlPlane(sim, CHAOS_CONTROL, name="equivalence-control"),
            churn_targets=[
                (name, switch.program)
                for name, switch in sorted(network.switches.items())
            ],
        )
        rng = SeededRng(draw["load"]["seed"], f"equivalence/{faults['plan']}")
        FaultInjector(scenario, get_plan(faults["plan"]), rng).arm()
    return network, recorders


def _nonzero(counts) -> Dict[str, int]:
    return {kind.value: n for kind, n in counts.items() if n}


def outcome(draw: Dict[str, Any], arm: str) -> Dict[str, Any]:
    """Run ``draw`` to completion under accelerator setting ``arm``.

    ``"visible"`` is what every arm must reproduce exactly: per-host
    arrivals as ``(time_ps, total_len)`` in arrival order, a CRC of every
    delivered packet's header values, and per switch its
    ``state_summary()``, bus counters and next-hop counters.
    ``"walk"`` holds the table hit/miss and drop counters, which a walk
    keeps exactly but a flow-cache replay skips: compare it only between
    arms with the same cache setting.
    """
    network, recorders = build(draw, **ARMS[arm])
    headers = {name: [] for name in network.hosts}
    for name, host in network.hosts.items():
        host.add_sink(
            lambda pkt, seen=headers[name]: seen.append(
                [h.field_values() for h in pkt.headers]
            )
        )
    network.run()
    visible: Dict[str, Any] = {
        "arrivals": {name: r.arrivals for name, r in sorted(recorders.items())},
        "headers": {
            name: zlib.crc32(repr(seen).encode())
            for name, seen in sorted(headers.items())
        },
    }
    walk: Dict[str, Any] = {}
    for name, switch in sorted(network.switches.items()):
        bus, program = switch.bus, switch.program
        visible[name] = {
            "state": switch.state_summary(),
            "fired": _nonzero(bus.fired),
            "handled": _nonzero(bus.handled),
            "suppressed": _nonzero(bus.suppressed),
            "dropped": _nonzero(bus.dropped),
            "next_hops": list(program.next_hop_stats()),
        }
        walk[name] = [
            (getattr(program, t).hit_count, getattr(program, t).miss_count)
            for t in _TABLES
        ] + [getattr(program, d) for d in _DROPS]
    return {"visible": visible, "walk": walk}


# ----------------------------------------------------------------------
# The strategy
# ----------------------------------------------------------------------
def _named(switch_of: List[int]) -> List[List[Any]]:
    return [[f"h{j}", s] for j, s in enumerate(switch_of)]


@st.composite
def _shape(draw, family: str) -> Dict[str, Any]:
    """The topology keys of one draw."""
    if family == "leafspine":
        return {
            "leaves": draw(st.integers(2, 3)),
            "spines": draw(st.integers(1, 2)),
            "hosts_per_leaf": draw(st.integers(1, 2)),
        }
    if family == "fattree":
        return {}
    if family == "chain":
        n = draw(st.integers(1, 6))
        return {"switches": n, "hosts": _named([0, n - 1])}
    if family == "chain_multi":
        n = draw(st.integers(1, 6))
        left, right = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        return {"switches": n, "hosts": _named([0] * left + [n - 1] * right)}
    if family == "chain_interior":
        n = draw(st.integers(3, 6))
        middle = draw(st.lists(st.integers(1, n - 2), min_size=1, max_size=3))
        return {"switches": n, "hosts": _named([0, n - 1] + middle)}
    n = draw(st.integers(3, 6))
    if family == "ring":
        at = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4))
        return {"switches": n, "hosts": _named(at)}
    parents = [draw(st.integers(0, i)) for i in range(n - 1)]
    leaves = [i for i in range(n) if i not in parents]
    at = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=4))
    return {"switches": n, "parents": parents, "hosts": _named(at)}


@st.composite
def draws(draw, families=FAMILIES) -> Dict[str, Any]:
    """One random network, load and event schedule (see module doc)."""
    family = draw(st.sampled_from(families))
    d: Dict[str, Any] = {"family": family, **draw(_shape(family))}
    # A link shorter than a frame's transmit time is never fused.
    d["latency_ps"] = draw(st.sampled_from([1_000_000, 300_000, 3_000_000]))
    d["queue_bytes"] = draw(st.sampled_from([2_048, 8_192, 65_536]))
    d["payload_len"] = draw(st.sampled_from([64, 200, 600, 1_400]))
    spec = topology(d)
    hosts = spec.host_names()
    # Mostly five link latencies apart: each flow's packets then fuse
    # one by one, and packets of different flows meet at shared ports.
    gap = d["latency_ps"] * draw(st.sampled_from([5, 5, 1, 20]))
    budget = 48 if len(hosts) <= 4 else 8
    d["load"] = {
        "kind": draw(st.sampled_from(["paced", "zipf"])),
        "seed": draw(st.integers(1, 1_000)),
        "skew": 1.2,
        "packets": draw(st.integers(2, budget)),
        "start_ps": 1_000_000,
        "gap_ps": gap,
    }
    end = d["load"]["start_ps"] + d["load"]["packets"] * gap
    times = st.integers(0, end)
    switches = spec.switch_names()
    d["faults"] = None
    if draw(st.booleans()):
        # Every builder puts a switch at each link's ``node_b`` end.
        link = draw(st.sampled_from(spec.links))
        burst = draw(st.sampled_from(spec.links))
        d["faults"] = {
            "plan": draw(st.sampled_from(sorted(BUILTIN_PLANS))),
            "link": [link.node_a, link.node_b],
            "switch": draw(st.sampled_from(switches)),
            "burst": [burst.node_b, burst.port_b],
        }

    def writes(when, where):
        return st.lists(
            st.tuples(
                when,
                where,
                st.sampled_from(hosts),
                st.sampled_from(["dscp", "repoint", "deny", "reinstall"]),
                st.integers(1, 3),
            ).map(list),
            max_size=4,
        )

    # Writes go to any switch at any time, or all to one switch at
    # evenly spaced times: a cache meets its first stale entry, recorded
    # before it kept a lookup log, at the first write to its switch, and
    # only later writes to that switch reach its revalidation.
    start = d["load"]["start_ps"]
    grid = st.sampled_from([start + k * (end - start) // 8 for k in range(9)])
    d["writes"] = draw(
        st.one_of(
            writes(times, st.sampled_from(switches)),
            st.sampled_from(switches).flatmap(lambda sw: writes(grid, st.just(sw))),
        )
    )
    # An observed bus runs nothing fused: observe one draw in three.
    d["observe"] = None
    if draw(st.integers(0, 2)) == 0:
        d["observe"] = sorted(draw(st.tuples(times, times)))
    return d
