"""Declarative scenario specs and the registry behind every entry point.

``repro.scenarios`` is the spine between scenario *descriptions* and
scenario *execution*: experiments, chaos cells and sharded fabrics
all register a picklable :class:`ScenarioSpec`, and the
CLI (``repro scenarios --list`` / ``repro submit``) plus the serving
layer (:mod:`repro.serve`) run them exclusively through this registry.
See docs/SERVING.md.
"""

from repro.scenarios.registry import (
    SCENARIO_MODULES,
    UnknownScenario,
    get,
    load_all,
    names,
    register,
    resolve,
    run,
    specs,
)
from repro.scenarios.spec import ScenarioError, ScenarioSpec, result_rows

__all__ = [
    "SCENARIO_MODULES",
    "ScenarioError",
    "ScenarioSpec",
    "UnknownScenario",
    "get",
    "load_all",
    "names",
    "register",
    "resolve",
    "result_rows",
    "run",
    "specs",
]
