"""Compile a :class:`~repro.faults.plan.FaultPlan` into timed events.

The :class:`FaultInjector` resolves each spec's target against a
:class:`~repro.faults.scenarios.Scenario`, schedules the fault actions
on the scenario's simulator, and logs every executed action into a
:class:`~repro.obs.faultlog.FaultLog`.  All randomness (flap-time
jitter, per-packet degradation draws) comes from named children of one
:class:`~repro.sim.rng.SeededRng`, so a (plan, app, seed) triple
replays byte-identically.

Faults surface through the same machinery the paper's applications
react to: flaps drive :meth:`Link.set_up`, which raises LINK_STATUS at
both endpoints; churn rides :meth:`ControlPlane.update_table`, bumping
route generations; bursts pause a traffic-manager port, forcing
enqueue/overflow events; stalls and crash-restores exercise the switch
directly (restore via the PR-3 :class:`~repro.state.store.StateStore`
snapshot/load path).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.faultlog import FaultLog
from repro.pisa.table import LpmTable
from repro.sim.rng import SeededRng


class Degradation:
    """A seeded per-packet link impairment (loss, corruption, jitter).

    Implements the :class:`~repro.net.link.LinkImpairment` protocol with
    one verdict draw and (when jitter is configured) one delay draw per
    packet, in transmit order — fully deterministic for a given rng.
    """

    def __init__(
        self, rng: SeededRng, loss: float, corrupt: float, jitter_ps: int
    ) -> None:
        self.rng = rng
        self.loss = loss
        self.corrupt = corrupt
        self.jitter_ps = jitter_ps
        self.judged = 0
        self.dropped = 0
        self.corrupted = 0
        self.delay_added_ps = 0

    def judge(self, pkt) -> Tuple[str, int]:
        """Decide one packet's fate: ("ok"|"drop"|"corrupt", extra_ps)."""
        self.judged += 1
        draw = self.rng.random()
        if draw < self.loss:
            self.dropped += 1
            return ("drop", 0)
        extra = self.rng.randint(0, self.jitter_ps) if self.jitter_ps else 0
        self.delay_added_ps += extra
        if draw < self.loss + self.corrupt:
            self.corrupted += 1
            return ("corrupt", extra)
        return ("ok", extra)


def _reinstall_routes(program) -> None:
    """Reinstall a forwarding program's routes with identical values.

    The point is the side effect on the cache layer, not the table
    contents: every write bumps the route table's generation (a
    :class:`~repro.pisa.flowcache.VersionedDict` or an LPM table), so
    the flow cache must re-examine every entry while forwarding
    behavior is unchanged — the cleanest possible probe for stale-hit
    bugs.  A route dict's entries are evicted (every chaos app keeps
    its routes in one); an LPM table's entries are revalidated when
    their logged lookups still select the same action, and evicted if
    they were recorded before the cache kept a lookup log.
    """
    routes = program.routes
    if isinstance(routes, LpmTable):
        for prefix, prefix_len, action in routes.entries():
            routes.update_action(prefix, prefix_len, action)
        return
    for dst_ip, port in list(routes.items()):
        routes[dst_ip] = port


class FaultInjector:
    """Arm a fault plan against a scenario's simulator."""

    def __init__(
        self,
        scenario,
        plan: FaultPlan,
        rng: SeededRng,
        log: Optional[FaultLog] = None,
    ) -> None:
        self.scenario = scenario
        self.plan = plan
        self.rng = rng
        self.log = log if log is not None else FaultLog()
        self.degradations: List[Degradation] = []
        self._snapshots: Dict[int, List[Tuple[Any, List[Any]]]] = {}
        self._armed = False

    def arm(self) -> None:
        """Schedule every spec's actions; call once, before running."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        for index, spec in enumerate(self.plan.specs):
            child = self.rng.child(f"{index}.{spec.kind}")
            getattr(self, f"_arm_{spec.kind}")(index, spec, child)

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------
    def _at(
        self, time_ps: int, spec: FaultSpec, action: str, target: str, fn, *args
    ) -> None:
        self.scenario.network.sim.call_at(
            time_ps, self._fire, spec, action, target, fn, args
        )

    def _fire(self, spec: FaultSpec, action: str, target: str, fn, args) -> None:
        fn(*args)
        self.log.record(
            self.scenario.network.sim.now_ps,
            self.plan.name,
            spec.kind,
            action,
            target,
        )

    # ------------------------------------------------------------------
    # Per-kind compilation
    # ------------------------------------------------------------------
    def _arm_link_flap(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        link = self.scenario.resolve_link(spec.target)
        start, end = spec.window_ps(self.scenario.duration_ps)
        cycle = max(2, (end - start) // spec.flaps)
        for k in range(spec.flaps):
            # Seeded jitter on each cycle start: seed sweeps explore
            # different orderings against in-flight packet events.
            offset = rng.randint(0, max(1, cycle // 4))
            down_at = start + k * cycle + offset
            up_at = down_at + cycle // 2
            self._at(down_at, spec, "link_down", link.name, link.set_up, False)
            self._at(up_at, spec, "link_up", link.name, link.set_up, True)

    def _arm_link_degrade(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        link = self.scenario.resolve_link(spec.target)
        start, end = spec.window_ps(self.scenario.duration_ps)
        degradation = Degradation(
            rng.child("draws"), spec.loss, spec.corrupt, spec.jitter_ps
        )
        self.degradations.append(degradation)
        self._at(start, spec, "degrade_on", link.name, link.set_impairment, degradation)
        self._at(end, spec, "degrade_off", link.name, link.set_impairment, None)

    def _arm_switch_stall(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        switch = self.scenario.resolve_switch(spec.target)
        start, end = spec.window_ps(self.scenario.duration_ps)
        self._at(start, spec, "stall", switch.name, switch.stall)
        self._at(end, spec, "unstall", switch.name, switch.unstall)

    def _arm_switch_crash(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        switch = self.scenario.resolve_switch(spec.target)
        start, end = spec.window_ps(self.scenario.duration_ps)
        checkpoint_at = spec.checkpoint_ps(self.scenario.duration_ps)
        self._at(
            checkpoint_at, spec, "checkpoint", switch.name, self._checkpoint,
            index, switch,
        )
        self._at(start, spec, "crash", switch.name, switch.stall)
        self._at(end, spec, "restore", switch.name, self._restore, index, switch)

    def _checkpoint(self, index: int, switch) -> None:
        # Flush fused in-flight deliveries first: their retroactive
        # extern writes belong to the virtual past and must land before
        # the snapshot is taken.
        disrupt = getattr(switch, "fastpath_disrupt", None)
        if disrupt is not None:
            disrupt()
        self._snapshots[index] = [
            (store, store.snapshot()) for store in switch.state_stores()
        ]

    def _restore(self, index: int, switch) -> None:
        snapshots = self._snapshots.get(index)
        if snapshots is None:
            raise RuntimeError(
                f"restore for {switch.name!r} fired before its checkpoint"
            )
        for store, values in snapshots:
            store.load(values)
        if switch.flow_cache is not None:
            # Cached decisions recorded against post-checkpoint extern
            # state would replay against the rolled-back registers.
            switch.flow_cache.clear()
        if getattr(switch, "flow_fastpath", None) is not None:
            switch.flow_fastpath.clear()
        switch.unstall()

    def _arm_control_churn(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        start, end = spec.window_ps(self.scenario.duration_ps)
        step = max(1, (end - start) // spec.updates)
        for u in range(spec.updates):
            self._at(start + u * step, spec, "churn_storm", "control", self._churn)

    def _churn(self) -> None:
        control = self.scenario.control
        for _name, program in self.scenario.churn_targets:
            routes = program.routes
            lpm = isinstance(routes, LpmTable)
            count = routes.entry_count() if lpm else len(routes)
            control.update_table(partial(_reinstall_routes, program), entries=count)

    def _arm_buffer_burst(self, index: int, spec: FaultSpec, rng: SeededRng) -> None:
        switch_name, port = self.scenario.burst
        switch = self.scenario.network.switches[switch_name]
        start, end = spec.window_ps(self.scenario.duration_ps)
        target = f"{switch_name}:{port}"
        self._at(
            start, spec, "port_pause", target, switch.tm.set_port_enabled, port, False
        )
        self._at(
            end, spec, "port_release", target, switch.tm.set_port_enabled, port, True
        )
