"""The central event bus: one instrumented path for every data-plane event.

Every event source in the reproduction — traffic-manager transitions
(enqueue / dequeue / overflow / underflow / transmit), the timer unit,
link-status changes, control-plane triggers, user events, generated
packets, and the pipeline packet events themselves — *publishes* typed
:class:`~repro.arch.events.Event` objects to an :class:`EventBus`.  The
switch architectures are *subscribers*: the bus routes admitted events
to the architecture's routing hook (synchronous logical pipelines, the
SUME Event Merger, Tofino-style emulation, …), and the architecture
reports back through :meth:`EventBus.dispatch` / :meth:`EventBus.delivered`
when a program handler actually runs.

That single choke point is what makes the event path *observable*:

* the bus keeps the canonical per-kind ``fired`` / ``suppressed`` /
  ``handled`` counters (the switch attributes of the same names alias
  these dictionaries),
* any number of :class:`BusObserver` instances can watch publishes,
  dispatches, and merger drops — see :mod:`repro.obs` for counters,
  dispatch-latency histograms, and the JSONL trace sink,
* observers registered globally (``EventBus.register_global_observer``)
  attach to every bus created afterwards, so whole experiments can be
  instrumented without threading an object through their factories.

Admission is the architecture-description gate of paper §2: a published
event the target does not expose is *suppressed* — the state transition
happened, observers see it, but no subscriber (and hence no program
handler) ever does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.arch.events import Event, EventType
from repro.sim.kernel import Simulator

#: Decides whether a published event is visible to the programming model.
AdmissionFn = Callable[[Event], bool]

#: Receives admitted events for architecture-specific routing.
Subscriber = Callable[[Event], None]

#: Runs the program handler for an event; True when a handler ran.
DispatcherFn = Callable[[Event], bool]


class BusObserver:
    """Base class for pluggable bus observers; every hook is a no-op.

    Subclasses override any of the three hooks.  Observers must not
    mutate the events they see — many observers can watch one bus.
    """

    def on_publish(self, bus: "EventBus", event: Event, admitted: bool) -> None:
        """An event was published (``admitted=False`` means suppressed)."""

    def on_dispatch(
        self, bus: "EventBus", event: Event, latency_ps: int, handled: bool
    ) -> None:
        """An admitted event reached its dispatch point.

        ``latency_ps`` is ``sim.now_ps - event.time_ps`` — the event's
        staleness at handler-run time (zero for synchronous dispatch,
        the merger/emulation wait otherwise).  ``handled`` is False when
        the loaded program has no handler for the kind.
        """

    def on_drop(self, bus: "EventBus", event: Event) -> None:
        """An admitted event was lost before dispatch (merger overflow …)."""


class EventBus:
    """Publish/subscribe hub for one switch's data-plane events.

    The owning switch installs an *admission* predicate (its
    architecture description), a *subscriber* (its routing hook), and a
    *dispatcher* (its handler runner).  Event sources only ever call
    :meth:`publish`; the dispatch side calls :meth:`dispatch` (bus runs
    the handler) or :meth:`delivered` (handler already ran inline, as in
    the pipeline packet path).
    """

    #: Observers attached to every subsequently created bus.
    _global_observers: List[BusObserver] = []

    def __init__(self, sim: Simulator, name: str = "bus") -> None:
        self.sim = sim
        self.name = name
        self.fired: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.suppressed: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.handled: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self.dropped: Dict[EventType, int] = {kind: 0 for kind in EventType}
        self._admission: Optional[AdmissionFn] = None
        self._subscribers: Dict[EventType, List[Subscriber]] = {}
        self._wildcard: List[Subscriber] = []
        self._bind_routes()
        self._dispatcher: Optional[DispatcherFn] = None
        self._observers: List[BusObserver] = list(EventBus._global_observers)
        #: Bumped on every observer attach/detach; the flow fastpath
        #: folds it into its path generation vectors so observer churn
        #: invalidates fused entries (observers need per-hop visibility).
        self.observer_epoch = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_admission(self, fn: Optional[AdmissionFn]) -> None:
        """Install the visibility gate (None admits everything)."""
        self._admission = fn

    def set_dispatcher(self, fn: Optional[DispatcherFn]) -> None:
        """Install the handler runner :meth:`dispatch` delegates to."""
        self._dispatcher = fn

    def subscribe(
        self, fn: Subscriber, kinds: Optional[List[EventType]] = None
    ) -> None:
        """Route admitted events to ``fn`` (all kinds when ``kinds`` is None)."""
        if kinds is None:
            self._wildcard.append(fn)
        else:
            for kind in kinds:
                self._subscribers.setdefault(kind, []).append(fn)
        self._bind_routes()

    def _bind_routes(self) -> None:
        """Per kind, the subscribers :meth:`publish` calls, in order."""
        wildcard = tuple(self._wildcard)
        self._routes: Dict[EventType, tuple] = {
            kind: tuple(self._subscribers.get(kind, ())) + wildcard
            for kind in EventType
        }

    def add_observer(self, observer: BusObserver) -> None:
        """Attach an observer to this bus only."""
        self._observers.append(observer)
        self.observer_epoch += 1

    def remove_observer(self, observer: BusObserver) -> None:
        """Detach a per-bus observer."""
        self._observers.remove(observer)
        self.observer_epoch += 1

    @classmethod
    def register_global_observer(cls, observer: BusObserver) -> None:
        """Attach ``observer`` to every bus created from now on."""
        cls._global_observers.append(observer)

    @classmethod
    def unregister_global_observer(cls, observer: BusObserver) -> None:
        """Stop attaching ``observer`` to new buses."""
        cls._global_observers.remove(observer)

    # ------------------------------------------------------------------
    # Publish side
    # ------------------------------------------------------------------
    def publish(self, event: Event, route: bool = True, gated: bool = True) -> bool:
        """Publish one event; returns True when it was admitted.

        ``route=False`` records and observes the event without invoking
        subscribers — the pipeline packet path uses this because its
        delivery *is* the pipeline traversal.  ``gated=False`` bypasses
        the admission predicate (pipeline packet events are gated
        upstream, at program-load validation).
        """
        admitted = (
            not gated or self._admission is None or self._admission(event)
        )
        if self._observers:
            for observer in self._observers:
                observer.on_publish(self, event, admitted)
        if not admitted:
            self.suppressed[event.kind] += 1
            return False
        self.fired[event.kind] += 1
        if route:
            for fn in self._routes[event.kind]:
                fn(event)
        return True

    # ------------------------------------------------------------------
    # Dispatch side
    # ------------------------------------------------------------------
    def dispatch(self, event: Event) -> bool:
        """Run the program handler for ``event`` via the dispatcher.

        Called by architectures at the moment an event reaches its
        handler (immediately for synchronous targets, after the merger
        or recirculation wait otherwise).  Returns True when a handler
        ran.
        """
        handled = self._dispatcher(event) if self._dispatcher is not None else False
        self.delivered(event, handled)
        return handled

    def delivered(self, event: Event, handled: bool) -> None:
        """Account a dispatch whose handler (if any) already ran inline."""
        if handled:
            self.handled[event.kind] += 1
        if self._observers:
            latency_ps = self.sim.now_ps - event.time_ps
            for observer in self._observers:
                observer.on_dispatch(self, event, latency_ps, handled)

    def drop(self, event: Event) -> None:
        """Record an admitted event lost before dispatch (merger overflow)."""
        self.dropped[event.kind] += 1
        for observer in self._observers:
            observer.on_drop(self, event)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def published_total(self) -> int:
        """Events published so far, admitted or not."""
        return sum(self.fired.values()) + sum(self.suppressed.values())

    # The route table is derived: not pickled, rebuilt on unpickle.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_routes"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_routes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventBus({self.name!r}, fired={sum(self.fired.values())}, "
            f"suppressed={sum(self.suppressed.values())}, "
            f"handled={sum(self.handled.values())})"
        )
