"""The paper's contribution: event-driven PISA architectures.

This subpackage holds the event model (paper Table 1), the event-driven
programming model (``P4Program`` with per-event handlers and the
``shared_register`` extern), the architecture description mechanism
(which events a target exposes), and three architectures:

* :class:`repro.arch.baseline.BaselinePsaSwitch` — the Portable Switch
  Architecture of Figure 1: ingress and egress pipelines around a
  traffic manager; only packet events are exposed.
* :class:`repro.arch.event_driven.LogicalEventSwitch` — the logical
  event-driven architecture of Figure 2: one logical pipeline per event
  kind with shared state.
* :class:`repro.arch.sume.SumeEventSwitch` — the SUME Event Switch of
  Figure 4: a single physical P4 pipeline fed by an Event Merger that
  piggybacks event metadata on packets or injects empty packets, plus a
  timer unit, packet generator, and link status monitor.

:mod:`repro.arch.emulation` adds the Section 6 story: emulating timer
and dequeue events on a baseline (Tofino-like) device via its packet
generator and recirculation, with the bandwidth cost made measurable.
"""

from repro.arch.events import Event, EventType, PACKET_EVENTS, NON_PACKET_EVENTS
from repro.arch.bus import BusObserver, EventBus
from repro.arch.description import ArchitectureDescription, UnsupportedEventError
from repro.arch.program import P4Program, handler
from repro.arch.merger import EventMerger, MergerStats
from repro.arch.generator import PacketGenerator, GeneratorConfig

#: The switches import the packet path (``repro.pisa.compile``,
#: ``repro.pisa.fastpath``), which imports ``repro.arch.events``: they
#: load on first use, so any of those modules can be imported first.
_SWITCHES = {
    "BaselinePsaSwitch": "repro.arch.baseline",
    "LogicalEventSwitch": "repro.arch.event_driven",
    "SumeEventSwitch": "repro.arch.sume",
    "EmulatedEventSwitch": "repro.arch.emulation",
}

__all__ = [
    "Event",
    "EventType",
    "PACKET_EVENTS",
    "NON_PACKET_EVENTS",
    "BusObserver",
    "EventBus",
    "ArchitectureDescription",
    "UnsupportedEventError",
    "P4Program",
    "handler",
    "BaselinePsaSwitch",
    "LogicalEventSwitch",
    "SumeEventSwitch",
    "EventMerger",
    "MergerStats",
    "PacketGenerator",
    "GeneratorConfig",
    "EmulatedEventSwitch",
]


def __getattr__(name):
    try:
        module_name = _SWITCHES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_SWITCHES))
