"""Chaos scenarios: small, fast builds of the paper's failure apps.

Each builder wires one Table-2 failure-handling application — fast
re-route, data-plane liveness, HULA load balancing, swing-state
migration — into a compact topology with a deterministic traffic
source, and returns a :class:`Scenario`: the uniform handle the
:class:`~repro.faults.injector.FaultInjector` and the invariant
monitors work against.  Scenarios are sized for grid runs (a few
milliseconds of simulated time, ~100–200 packets), not for paper
numbers; the experiment modules under :mod:`repro.experiments` remain
the source of those.

A scenario names its *defaults*: which link a flap/degrade hits, which
switch a stall/crash hits, and which egress port a buffer burst pauses
— so one :class:`~repro.faults.plan.FaultPlan` applies to every app.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.frr import FastRerouteProgram, StaticRouteProgram
from repro.apps.hula import HulaLeafProgram, HulaSpineProgram
from repro.apps.liveness import LivenessMonitor
from repro.apps.state_migration import BudgetTransitProgram, SwingStateHeadProgram
from repro.control.plane import ControlPlane, ControlPlaneConfig
from repro.experiments.factories import make_baseline_switch, make_sume_switch
from repro.experiments.frr_exp import H0_IP, H1_IP, _build_diamond
from repro.net.host import Host
from repro.net.link import Link
from repro.net.network import Network
from repro.net.topology import build_leaf_spine, build_linear
from repro.pisa.fastpath import can_fuse
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.workloads.base import FlowSpec
from repro.workloads.cbr import ConstantBitRate

MONITOR_IP = 0x0A00_00FE


class LenProbe:
    """``len(getattr(obj, attr))`` as a picklable callable.

    Probes ride inside the scenario when it is checkpointed or forked
    (:meth:`Simulator.fork`), so they must pickle — and because pickle
    preserves object identity within one graph, a forked probe observes
    the *forked* program, never the original.  Lambdas would refuse to
    pickle and silently pin the scenario to one process.
    """

    def __init__(self, obj: object, attr: str) -> None:
        self.obj = obj
        self.attr = attr

    def __call__(self) -> int:
        return len(getattr(self.obj, self.attr))


class AttrProbe:
    """``int(getattr(obj, attr, default))`` as a picklable callable."""

    def __init__(self, obj: object, attr: str, default: int = 0) -> None:
        self.obj = obj
        self.attr = attr
        self.default = default

    def __call__(self) -> int:
        return int(getattr(self.obj, self.attr, self.default))

#: Control path used for churn storms: fast enough that every storm's
#: mutations land inside the fault window of a few-millisecond run.
CHAOS_CONTROL = ControlPlaneConfig(
    rtt_ps=20 * MICROSECONDS, per_entry_write_ps=1 * MICROSECONDS
)


@dataclass
class Scenario:
    """One app wired for fault injection, with its fault defaults."""

    name: str
    network: Network
    duration_ps: int
    sink: Host
    default_link: Tuple[str, str]
    default_switch: str
    burst: Tuple[str, int]
    control: ControlPlane
    churn_targets: List[Tuple[str, object]] = field(default_factory=list)
    probes: Dict[str, Callable[[], int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Target resolution (injector-facing)
    # ------------------------------------------------------------------
    def resolve_link(self, target: str) -> Link:
        """A link by ``"a-b"`` endpoint names ('' = scenario default)."""
        if target:
            name_a, name_b = target.split("-", 1)
        else:
            name_a, name_b = self.default_link
        link = self.network.link_between(name_a, name_b)
        if link is None:
            raise ValueError(f"{self.name}: no link between {name_a!r} and {name_b!r}")
        return link

    def resolve_switch(self, target: str):
        """A switch by name ('' = scenario default)."""
        name = target or self.default_switch
        try:
            return self.network.switches[name]
        except KeyError:
            raise ValueError(f"{self.name}: no switch named {name!r}") from None

    def caches(self) -> List[object]:
        """Every active flow cache in the scenario, in stable order."""
        return [
            switch.flow_cache
            for _name, switch in sorted(self.network.switches.items())
            if switch.flow_cache is not None
        ]

    def fastpath_totals(self) -> Dict[str, int]:
        """Flow-fastpath counters summed across the scenario's switches."""
        totals = {
            "paths_built": 0,
            "fused": 0,
            "materialized": 0,
            "fallbacks": 0,
            "invalidations": 0,
        }
        for _name, switch in sorted(self.network.switches.items()):
            fastpath = getattr(switch, "flow_fastpath", None)
            if fastpath is None:
                continue
            stats = fastpath.stats
            totals["paths_built"] += stats.paths_built
            totals["fused"] += stats.fused
            totals["materialized"] += stats.materialized
            totals["fallbacks"] += stats.fallbacks_total
            totals["invalidations"] += stats.invalidations
        return totals

    def accelerator_signature(self) -> Tuple[Tuple[str, bool, bool, bool], ...]:
        """Which packet-path accelerators can act, switch by switch.

        One ``(name, cache, fuse, compiled)`` row per switch in name
        order: whether a flow cache is attached (a parked one never
        acts), whether the flow fastpath can fuse there
        (:func:`~repro.pisa.fastpath.can_fuse`), and whether compiled
        walks can happen — compilation is on and the program offers a
        ``pipeline_spec``, the first check
        :func:`~repro.pisa.compile.make_walk` makes.  Two builds of one
        app and seed that differ only in their accelerator knobs and
        share a signature run identically, so the chaos grid runs them
        once (:func:`~repro.faults.chaos.run_forked_cells`).
        """
        signature = []
        for name, switch in sorted(self.network.switches.items()):
            cache = switch.flow_cache is not None
            has_spec = getattr(switch.program, "pipeline_spec", None) is not None
            signature.append(
                (name, cache, can_fuse(switch), switch.pipeline_compile and has_spec)
            )
        return tuple(signature)

    # ------------------------------------------------------------------
    # Behavior fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self, arrivals: List[int]) -> Dict[str, int]:
        """Deterministic ints summarizing packet-visible behavior.

        Built only from state the flow cache is required to preserve
        (arrival times, per-switch rx/drop counters, event-handler
        outcomes) — so a cache-on vs cache-off mismatch is a coherence
        violation, not fingerprint noise.
        """
        switch_state = tuple(
            (
                name,
                switch.rx_packets,
                switch.tm.drops_overflow,
                switch.stalled_rx_drops,
                switch.stalled_timer_misses,
            )
            for name, switch in sorted(self.network.switches.items())
        )
        data: Dict[str, int] = {
            "delivered": len(arrivals),
            "arrivals_crc": zlib.crc32(repr(tuple(arrivals)).encode()),
            "switches_crc": zlib.crc32(repr(switch_state).encode()),
        }
        for key in sorted(self.probes):
            data[f"probe_{key}"] = int(self.probes[key]())
        return data


def _churn_targets(network: Network) -> List[Tuple[str, object]]:
    """Every loaded program with a route table, in stable order."""
    return [
        (name, switch.program)
        for name, switch in sorted(network.switches.items())
        if getattr(switch.program, "routes", None) is not None
    ]


# ----------------------------------------------------------------------
# Builders (one per Table-2 failure-handling application)
# ----------------------------------------------------------------------
def build_frr(
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """Fast re-route on the diamond: LINK_STATUS flips to backups."""
    network = _build_diamond(
        make_sume_switch(
            queue_capacity_bytes=16 * 1024,
            flow_cache=flow_cache,
            compile=compile,
            fastpath=fastpath,
        )
    )
    head = FastRerouteProgram()
    head.install_protected_route(H1_IP, primary=1, backup=2)
    head.install_route(H0_IP, 0)
    network.switches["s0"].load_program(head)
    for name, routes in (
        ("s1", {H1_IP: 1, H0_IP: 0}),
        ("s2", {H1_IP: 1, H0_IP: 0}),
        ("s3", {H1_IP: 0, H0_IP: 1}),
    ):
        program = FastRerouteProgram()
        program.install_routes(routes)
        network.switches[name].load_program(program)

    flow = FlowSpec(H0_IP, H1_IP, sport=5_000, dport=6_000)
    generator = ConstantBitRate(
        network.sim,
        network.hosts["h0"].send,
        flow,
        rate_gbps=0.3,
        payload_len=1000,
        name="chaos-frr",
    )
    generator.start(at_ps=200 * MICROSECONDS)

    return Scenario(
        name="frr",
        network=network,
        duration_ps=4 * MILLISECONDS,
        sink=network.hosts["h1"],
        default_link=("s0", "s1"),
        default_switch="s0",
        burst=("s3", 0),
        control=ControlPlane(network.sim, CHAOS_CONTROL, name="chaos-control"),
        churn_targets=_churn_targets(network),
        probes={
            "failovers": LenProbe(head, "failovers"),
            "reverts": LenProbe(head, "reverts"),
        },
    )


def build_liveness(
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """Data-plane liveness probing across the link the faults target."""
    network = Network()
    factory = make_sume_switch(
            queue_capacity_bytes=16 * 1024,
            flow_cache=flow_cache,
            compile=compile,
            fastpath=fastpath,
        )
    s0 = network.add_switch(factory(network.sim, "s0", 3))
    s1 = network.add_switch(factory(network.sim, "s1", 2))
    monitor = network.add_host(Host(network.sim, "monitor", MONITOR_IP))
    h0 = network.add_host(Host(network.sim, "h0", H0_IP))
    h1 = network.add_host(Host(network.sim, "h1", H1_IP))
    network.connect(s0, 0, s1, 0, latency_ps=500_000)
    network.connect(s0, 1, monitor, 0, latency_ps=500_000)
    network.connect(s0, 2, h0, 0, latency_ps=500_000)
    network.connect(s1, 1, h1, 0, latency_ps=500_000)

    prog0 = LivenessMonitor(
        switch_id=0,
        neighbor_ports=[0],
        period_ps=50 * MICROSECONDS,
        misses_allowed=3,
        monitor_port=1,
    )
    prog0.install_routes({H1_IP: 0, H0_IP: 2})
    prog1 = LivenessMonitor(
        switch_id=1,
        neighbor_ports=[0],
        period_ps=50 * MICROSECONDS,
        misses_allowed=3,
        monitor_port=None,
    )
    prog1.install_routes({H1_IP: 1, H0_IP: 0})
    s0.load_program(prog0)
    s1.load_program(prog1)

    flow = FlowSpec(H0_IP, H1_IP, sport=7_000, dport=8_000)
    generator = ConstantBitRate(
        network.sim,
        h0.send,
        flow,
        rate_gbps=0.2,
        payload_len=1000,
        name="chaos-liveness",
    )
    generator.start(at_ps=200 * MICROSECONDS)

    return Scenario(
        name="liveness",
        network=network,
        duration_ps=4 * MILLISECONDS,
        sink=h1,
        default_link=("s0", "s1"),
        default_switch="s1",
        burst=("s1", 1),
        control=ControlPlane(network.sim, CHAOS_CONTROL, name="chaos-control"),
        churn_targets=_churn_targets(network),
        probes={
            "detections": LenProbe(prog0, "failures"),
            "recoveries": LenProbe(prog0, "recoveries"),
            "peer_detections": LenProbe(prog1, "failures"),
        },
    )


def build_hula(
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """HULA probes and flowlets on a 2x2 leaf-spine fabric."""
    fabric = build_leaf_spine(
        make_sume_switch(
            queue_capacity_bytes=32 * 1024,
            flow_cache=flow_cache,
            compile=compile,
            fastpath=fastpath,
        ),
        leaf_count=2,
        spine_count=2,
        hosts_per_leaf=1,
    )
    network = fabric.network
    leaf_programs = {}
    for leaf_index, leaf in enumerate(fabric.leaves):
        program = HulaLeafProgram(
            tor_id=leaf_index,
            uplink_ports=fabric.uplink_ports[leaf.name],
            tor_count=2,
            probe_period_ps=100 * MICROSECONDS,
            flowlet_gap_ps=300 * MICROSECONDS,
        )
        base = fabric.host_port_base[leaf.name]
        for host_index, host in enumerate(fabric.hosts[leaf.name]):
            program.install_route(host.ip, base + host_index)
        other = fabric.leaves[1 - leaf_index]
        for host in fabric.hosts[other.name]:
            program.install_remote(host.ip, 1 - leaf_index)
        leaf.load_program(program)
        leaf_programs[leaf.name] = program
    for spine in fabric.spines:
        spine_program = HulaSpineProgram(
            leaf_ports=fabric.downlink_ports[spine.name],
            decay_period_ps=100 * MICROSECONDS,
        )
        for leaf_index, leaf in enumerate(fabric.leaves):
            for host in fabric.hosts[leaf.name]:
                spine_program.install_route(host.ip, leaf_index)
        spine.load_program(spine_program)

    src = fabric.hosts["leaf0"][0]
    dst = fabric.hosts["leaf1"][0]
    flow = FlowSpec(src.ip, dst.ip, sport=21_000, dport=9_000)
    generator = ConstantBitRate(
        network.sim,
        src.send,
        flow,
        rate_gbps=0.5,
        payload_len=1000,
        name="chaos-hula",
    )
    generator.start(at_ps=200 * MICROSECONDS)

    leaf0 = leaf_programs["leaf0"]
    return Scenario(
        name="hula",
        network=network,
        duration_ps=3 * MILLISECONDS,
        sink=dst,
        default_link=("leaf0", "spine0"),
        default_switch="leaf0",
        burst=("leaf1", fabric.host_port_base["leaf1"]),
        control=ControlPlane(network.sim, CHAOS_CONTROL, name="chaos-control"),
        churn_targets=_churn_targets(network),
        probes={
            "path_switches": AttrProbe(leaf0, "path_switches"),
            "probes_sent": AttrProbe(leaf0, "probes_sent"),
        },
    )


def build_migration(
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """Swing-state budget migration on the diamond."""
    network = _build_diamond(
        make_sume_switch(
            queue_capacity_bytes=16 * 1024,
            flow_cache=flow_cache,
            compile=compile,
            fastpath=fastpath,
        )
    )
    head = SwingStateHeadProgram(migrate=True)
    head.install_protected_route(H1_IP, primary=1, backup=2)
    head.install_route(H0_IP, 0)
    network.switches["s0"].load_program(head)
    transits = {}
    for name in ("s1", "s2"):
        transit = BudgetTransitProgram(budget_bytes=60_000)
        transit.install_routes({H1_IP: 1, H0_IP: 0})
        network.switches[name].load_program(transit)
        transits[name] = transit
    tail = StaticRouteProgram()
    tail.install_routes({H1_IP: 0, H0_IP: 1})
    network.switches["s3"].load_program(tail)

    flow = FlowSpec(H0_IP, H1_IP, sport=777, dport=888)
    generator = ConstantBitRate(
        network.sim,
        network.hosts["h0"].send,
        flow,
        rate_gbps=0.2,
        payload_len=958,
        name="chaos-migration",
    )
    generator.start(at_ps=200 * MICROSECONDS)

    return Scenario(
        name="migration",
        network=network,
        duration_ps=5 * MILLISECONDS,
        sink=network.hosts["h1"],
        default_link=("s0", "s1"),
        default_switch="s1",
        burst=("s3", 0),
        control=ControlPlane(network.sim, CHAOS_CONTROL, name="chaos-control"),
        churn_targets=_churn_targets(network),
        probes={
            "transfers_sent": AttrProbe(head, "transfers_sent"),
            "transfers_received": AttrProbe(transits["s2"], "transfers_received"),
        },
    )


def build_l3chain(
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """Static routing on a baseline-PSA chain: the fastpath's home turf.

    The other chaos apps run SUME event switches, whose receive path
    never fuses; this scenario is the one whose cells actually exercise
    end-to-end fusion — and, under every fault plan, disruption-time
    materialization.  The CBR pacing keeps the inter-packet gap well
    above the fused window so steady-state traffic fuses hop-for-hop,
    and the burst target pauses an **on-path** egress port: a fused
    window interrupted by the pause must materialize and queue exactly
    like the per-hop reference.
    """
    network = build_linear(
        make_baseline_switch(
            queue_capacity_bytes=16 * 1024,
            flow_cache=flow_cache,
            compile=compile,
            fastpath=fastpath,
        ),
        switch_count=3,
    )
    for name in sorted(network.switches):
        program = StaticRouteProgram()
        program.install_routes({H1_IP: 1, H0_IP: 0})
        network.switches[name].load_program(program)

    flow = FlowSpec(H0_IP, H1_IP, sport=4_000, dport=4_001)
    generator = ConstantBitRate(
        network.sim,
        network.hosts["h0"].send,
        flow,
        rate_gbps=0.25,
        payload_len=200,
        name="chaos-l3chain",
    )
    generator.start(at_ps=200 * MICROSECONDS)

    return Scenario(
        name="l3chain",
        network=network,
        duration_ps=4 * MILLISECONDS,
        sink=network.hosts["h1"],
        default_link=("s1", "s2"),
        default_switch="s1",
        burst=("s1", 1),
        control=ControlPlane(network.sim, CHAOS_CONTROL, name="chaos-control"),
        churn_targets=_churn_targets(network),
        probes={
            "s0_updates": AttrProbe(network.switches["s0"].program, "control_updates"),
            "routed": LenProbe(network.switches["s2"].program, "routes"),
        },
    )


#: The app grid the chaos harness iterates.
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "frr": build_frr,
    "hula": build_hula,
    "l3chain": build_l3chain,
    "liveness": build_liveness,
    "migration": build_migration,
}


def build_scenario(
    app: str,
    seed: int,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    fastpath: Optional[bool] = None,
) -> Scenario:
    """Build one app scenario by name."""
    try:
        builder = SCENARIOS[app]
    except KeyError:
        choices = sorted(SCENARIOS)
        raise ValueError(f"unknown chaos app {app!r}; pick from {choices}") from None
    return builder(seed, flow_cache=flow_cache, compile=compile, fastpath=fastpath)
