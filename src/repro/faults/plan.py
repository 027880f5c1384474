"""Declarative, seed-replayable fault plans.

A :class:`FaultPlan` is a named tuple of :class:`FaultSpec` entries —
pure data, no simulator references — that the
:class:`~repro.faults.injector.FaultInjector` compiles into timed
kernel events against a concrete scenario.  Specs place themselves with
*fractional windows* (``start_frac``/``end_frac`` of the scenario
duration), so one plan stresses every application regardless of how
long each scenario runs.

Fault kinds (all deterministic given the injector's seed):

``link_flap``
    ``flaps`` down/up cycles of a link inside the window, with a small
    seeded jitter on each cycle's start so seed sweeps explore
    different interleavings against in-flight packets.
``link_degrade``
    Attach a seeded :class:`~repro.faults.injector.Degradation` to a
    link for the window: per-packet loss, CRC corruption, and uniform
    delay jitter.
``switch_stall``
    Freeze a switch (ingress drops, timers suppressed) for the window;
    queued packets keep draining.
``switch_crash``
    Snapshot every :class:`~repro.state.store.StateStore` the switch
    owns at ``checkpoint_frac``, stall at ``start_frac``, then restore
    the snapshot (and clear the flow cache) at ``end_frac`` — the PR-3
    checkpoint machinery driven as a fault.
``control_churn``
    ``updates`` control-plane storms spread over the window, each
    reinstalling every forwarding program's routes *with identical
    values* through :meth:`~repro.control.plane.ControlPlane.update_table`
    — zero behavioral delta, but every route generation bumps, so the
    flow cache must evict or revalidate every entry and never stale-hit.
``buffer_burst``
    Pause one egress port for the window so queues build, forcing
    enqueue and (with small buffers) overflow events, then release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Every fault kind a spec may name.
FAULT_KINDS = (
    "link_flap",
    "link_degrade",
    "switch_stall",
    "switch_crash",
    "control_churn",
    "buffer_burst",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault, placed by fractional window inside a scenario."""

    kind: str
    target: str = ""  # link "a-b" / switch name; "" = scenario default
    start_frac: float = 0.25
    end_frac: float = 0.7
    flaps: int = 1  # link_flap: down/up cycles in the window
    loss: float = 0.0  # link_degrade: per-packet drop probability
    corrupt: float = 0.0  # link_degrade: per-packet corruption probability
    jitter_ps: int = 0  # link_degrade: max extra per-packet delay
    updates: int = 6  # control_churn: storms across the window
    checkpoint_frac: Optional[float] = None  # switch_crash: snapshot instant

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if not 0.0 <= self.start_frac < self.end_frac <= 1.0:
            raise ValueError(
                f"need 0 <= start_frac < end_frac <= 1, got "
                f"[{self.start_frac}, {self.end_frac}]"
            )
        if not 0.0 <= self.loss <= 1.0 or not 0.0 <= self.corrupt <= 1.0:
            raise ValueError("loss and corrupt must be probabilities in [0, 1]")
        if self.loss + self.corrupt > 1.0:
            raise ValueError("loss + corrupt must not exceed 1")
        if self.jitter_ps < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter_ps}")
        if self.flaps < 1:
            raise ValueError(f"need at least one flap, got {self.flaps}")
        if self.updates < 1:
            raise ValueError(f"need at least one update, got {self.updates}")
        if self.checkpoint_frac is not None and not (
            0.0 <= self.checkpoint_frac < self.start_frac
        ):
            raise ValueError("checkpoint_frac must precede start_frac")

    def window_ps(self, duration_ps: int) -> Tuple[int, int]:
        """The absolute ``(start_ps, end_ps)`` window inside a run."""
        return (
            int(duration_ps * self.start_frac),
            int(duration_ps * self.end_frac),
        )

    def checkpoint_ps(self, duration_ps: int) -> int:
        """switch_crash: when to snapshot (defaults to half of start)."""
        frac = (
            self.checkpoint_frac
            if self.checkpoint_frac is not None
            else self.start_frac / 2
        )
        return int(duration_ps * frac)


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered bundle of fault specs."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError(f"plan {self.name!r} has no fault specs")

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this plan injects, sorted."""
        return tuple(sorted({spec.kind for spec in self.specs}))


#: The built-in plan catalog the chaos grid runs.
BUILTIN_PLANS: Dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        FaultPlan(
            "linkflap",
            "three seeded down/up cycles of the primary link",
            (FaultSpec("link_flap", flaps=3, start_frac=0.25, end_frac=0.7),),
        ),
        FaultPlan(
            "linkdegrade",
            "lossy, corrupting, jittery primary link for mid-run",
            (
                FaultSpec(
                    "link_degrade",
                    loss=0.08,
                    corrupt=0.04,
                    jitter_ps=400_000,
                    start_frac=0.2,
                    end_frac=0.75,
                ),
            ),
        ),
        FaultPlan(
            "stall",
            "freeze the default switch for a fifth of the run",
            (FaultSpec("switch_stall", start_frac=0.35, end_frac=0.55),),
        ),
        FaultPlan(
            "crash",
            "checkpoint, crash, and state-restore the default switch",
            (FaultSpec("switch_crash", start_frac=0.35, end_frac=0.6),),
        ),
        FaultPlan(
            "churn",
            "control-plane storms reinstalling identical routes",
            (FaultSpec("control_churn", updates=6, start_frac=0.25, end_frac=0.7),),
        ),
        FaultPlan(
            "burst",
            "pause the sink-side egress port to build buffer pressure",
            (FaultSpec("buffer_burst", start_frac=0.3, end_frac=0.5),),
        ),
        FaultPlan(
            "storm",
            "composed flap + churn + buffer pressure",
            (
                FaultSpec("link_flap", flaps=2, start_frac=0.2, end_frac=0.4),
                FaultSpec("control_churn", updates=4, start_frac=0.3, end_frac=0.6),
                FaultSpec("buffer_burst", start_frac=0.5, end_frac=0.65),
            ),
        ),
    )
}


def get_plan(name: str) -> FaultPlan:
    """Look up a built-in plan by name."""
    try:
        return BUILTIN_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; pick from {sorted(BUILTIN_PLANS)}"
        ) from None
