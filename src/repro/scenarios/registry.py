"""The process-wide scenario registry.

Modules declare their scenarios at import time with :func:`register`;
:func:`load_all` imports every contributing module so listings and
name resolution see the full catalog.  Lookup failures raise
:class:`UnknownScenario`, which carries the registered names — callers
print the catalog instead of a bare ``KeyError``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Union

from repro.scenarios.spec import ScenarioError, ScenarioSpec

#: Every module that registers scenarios on import, in catalog order.
#: (Kept explicit rather than discovered: the order fixes listing order,
#: and a module that silently fell out of the list would silently fall
#: out of the service's catalog.)
SCENARIO_MODULES = (
    "repro.experiments.microburst_exp",
    "repro.experiments.events_exp",
    "repro.experiments.psa_fig_exp",
    "repro.experiments.staleness_exp",
    "repro.experiments.table2_exp",
    "repro.experiments.frr_exp",
    "repro.experiments.liveness_exp",
    "repro.experiments.hula_exp",
    "repro.experiments.aqm_exp",
    "repro.experiments.ndp_exp",
    "repro.experiments.policing_exp",
    "repro.experiments.flow_rate_exp",
    "repro.experiments.netcache_exp",
    "repro.experiments.netchain_exp",
    "repro.experiments.int_exp",
    "repro.experiments.scheduling_exp",
    "repro.experiments.ecn_exp",
    "repro.experiments.migration_exp",
    "repro.experiments.cms_exp",
    "repro.experiments.emulation_exp",
    "repro.experiments.merger_exp",
    "repro.experiments.reliable_exp",
    "repro.experiments.shard_exp",
    "repro.faults.chaos",
    "repro.search.runner",
)


class UnknownScenario(KeyError):
    """An unregistered scenario name; knows what *is* registered."""

    def __init__(self, name: str, registered: List[str]) -> None:
        self.name = name
        self.registered = registered
        listing = "\n  ".join(registered) if registered else "(none)"
        super().__init__(
            f"unknown scenario {name!r}; registered scenarios:\n  {listing}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


_REGISTRY: Dict[str, ScenarioSpec] = {}
_LOADED = False


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the catalog; returns it for chaining.

    Re-registering the identical spec is a no-op (modules may be
    re-imported under different names in tests); registering a
    *different* spec under an existing name is an error — scenario names
    are the service's stable public identifiers.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ScenarioError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def load_all() -> int:
    """Import every contributing module; returns the catalog size."""
    global _LOADED
    if not _LOADED:
        for module in SCENARIO_MODULES:
            importlib.import_module(module)
        _LOADED = True
    return len(_REGISTRY)


def get(name: str, tag: Optional[str] = None) -> ScenarioSpec:
    """Look up a registered spec by name.

    With ``tag``, only scenarios carrying that tag resolve — and the
    :class:`UnknownScenario` listing is limited to them, so e.g. an
    events-stats source typo prints the sources, not the whole catalog.
    """
    load_all()
    spec = _REGISTRY.get(name)
    if spec is None or (tag is not None and tag not in spec.tags):
        raise UnknownScenario(name, names(tag))
    return spec


def names(tag: Optional[str] = None) -> List[str]:
    """Registered names in catalog (registration) order."""
    load_all()
    return [spec.name for spec in _REGISTRY.values() if tag is None or tag in spec.tags]


def specs(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """Registered specs in catalog order."""
    load_all()
    return [spec for spec in _REGISTRY.values() if tag is None or tag in spec.tags]


def resolve(spec_or_name: Union[str, ScenarioSpec], **overrides: Any) -> ScenarioSpec:
    """A runnable spec from a name or spec, with overrides applied."""
    if isinstance(spec_or_name, ScenarioSpec):
        spec = spec_or_name
    else:
        spec = get(spec_or_name)
    if overrides:
        spec = spec.with_params(**overrides)
    return spec


def run(spec_or_name: Union[str, ScenarioSpec], **overrides: Any) -> Any:
    """Resolve and run a scenario to completion; returns its result."""
    return resolve(spec_or_name, **overrides).run()
