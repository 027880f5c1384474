"""The event-driven programming model.

A data-plane program subclasses :class:`P4Program` and registers
per-event handlers with the :func:`handler` decorator, mirroring the
paper's per-event ``control`` blocks::

    class Microburst(P4Program):
        def __init__(self):
            super().__init__()
            self.buf_size = SharedRegister(NUM_REGS, name="flowBufSize_reg")

        @handler(EventType.INGRESS_PACKET)
        def ingress(self, ctx, pkt, meta):
            ...  # compute flowID, init enq/deq metadata, read bufSize

        @handler(EventType.ENQUEUE)
        def on_enqueue(self, ctx, event):
            ...  # bufSize_reg.add(event.meta["flowID"], pkt_len)

Packet-event handlers (ingress / egress / recirculated / generated)
receive ``(ctx, pkt, std_meta)``; all other handlers receive
``(ctx, event)``.  ``ctx`` is the :class:`ProgramContext` the
architecture provides — the program's window onto target services
(time, timers, packet generation, user events, the control-plane
channel).

Loading a program onto an architecture validates its handled events
against the target's :class:`~repro.arch.description.ArchitectureDescription`
(paper §2: the architecture description file declares the supported
events).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.arch.events import Event, EventType
from repro.packet.packet import Packet
from repro.pisa.externs.register import Register, SharedRegister
from repro.pisa.metadata import StandardMetadata

_HANDLER_ATTR = "_repro_handles_event"


def handler(kind: EventType) -> Callable:
    """Mark a method as the handler (control block) for ``kind``."""

    def decorate(fn: Callable) -> Callable:
        existing = getattr(fn, _HANDLER_ATTR, None)
        if existing is not None:
            raise TypeError(
                f"{fn.__qualname__} already handles {existing}; one handler "
                f"method handles exactly one event kind"
            )
        setattr(fn, _HANDLER_ATTR, kind)
        return fn

    return decorate


class ProgramContext:
    """Target services exposed to program handlers.

    Architectures subclass this and implement the capabilities their
    description advertises; the base class raises for everything, so a
    program that calls an unavailable service fails loudly.
    """

    @property
    def now_ps(self) -> int:
        """Current simulated time."""
        raise NotImplementedError

    def configure_timer(self, timer_id: int, period_ps: int) -> None:
        """Arm periodic timer ``timer_id``; fires TIMER events."""
        raise NotImplementedError(f"{type(self).__name__} has no timer unit")

    def cancel_timer(self, timer_id: int) -> None:
        """Disarm a periodic timer."""
        raise NotImplementedError(f"{type(self).__name__} has no timer unit")

    def generate_packet(self, pkt: Packet) -> None:
        """Inject a program-built packet into the ingress path."""
        raise NotImplementedError(f"{type(self).__name__} has no packet generator")

    def raise_user_event(self, meta: Dict[str, int], delay_ps: int = 0) -> None:
        """Fire a USER event (optionally after a delay)."""
        raise NotImplementedError(f"{type(self).__name__} has no user events")

    def notify_control_plane(self, message: Dict[str, int]) -> None:
        """Send a digest/notification to the control plane."""
        raise NotImplementedError(f"{type(self).__name__} has no CPU channel")

    def link_up(self, port: int) -> bool:
        """Current link status of ``port``."""
        raise NotImplementedError(f"{type(self).__name__} has no link monitor")

    def queue_depth_bytes(self, port: int, queue_id: int = 0) -> int:
        """Depth of one egress queue (architectural introspection)."""
        raise NotImplementedError(f"{type(self).__name__} has no queue depths")


PacketHandler = Callable[[ProgramContext, Packet, StandardMetadata], None]
EventHandler = Callable[[ProgramContext, Event], None]


class P4Program:
    """Base class for event-driven data-plane programs.

    Subclasses declare externs as attributes in ``__init__`` and
    register handlers with :func:`handler`.  The architecture calls
    :meth:`on_load` once after validation — the place to configure
    timers and install table defaults.
    """

    name: str = "program"

    def __init__(self) -> None:
        self._handlers: Dict[EventType, Callable] = {}
        self._shared_regs: Optional[List[SharedRegister]] = None
        for attr in dir(type(self)):
            fn = getattr(type(self), attr)
            kind = getattr(fn, _HANDLER_ATTR, None)
            if kind is None:
                continue
            if kind in self._handlers:
                raise TypeError(
                    f"{type(self).__name__} defines two handlers for {kind}"
                )
            self._handlers[kind] = getattr(self, attr)

    # ------------------------------------------------------------------
    # Introspection used by architectures
    # ------------------------------------------------------------------
    def handled_events(self) -> Set[EventType]:
        """The event kinds this program handles."""
        return set(self._handlers)

    def handler_for(self, kind: EventType) -> Optional[Callable]:
        """The bound handler for ``kind``, or None."""
        return self._handlers.get(kind)

    def externs(self) -> Iterator[Tuple[str, object]]:
        """Yield (attribute name, extern) for every declared extern."""
        from repro.pisa.externs.counter import Counter
        from repro.pisa.externs.meter import Meter
        from repro.pisa.externs.pifo import PifoQueue
        from repro.pisa.externs.sketch import BloomFilter, CountMinSketch
        from repro.pisa.externs.window import ShiftRegister, SlidingWindow

        extern_types = (
            Register,
            Counter,
            Meter,
            CountMinSketch,
            BloomFilter,
            PifoQueue,
            ShiftRegister,
            SlidingWindow,
        )
        for attr, value in sorted(vars(self).items()):
            if isinstance(value, extern_types):
                yield attr, value

    def shared_registers(self) -> List[SharedRegister]:
        """All declared :class:`SharedRegister` externs.

        Cached after the first call — architectures consult this around
        every handler dispatch, and externs are declared in ``__init__``,
        before any architecture can ask.
        """
        regs = self._shared_regs
        if regs is None:
            regs = [
                ext for _name, ext in self.externs() if isinstance(ext, SharedRegister)
            ]
            self._shared_regs = regs
        return regs

    def state_bits(self) -> int:
        """Total stateful footprint of all externs that report one.

        This is the quantity behind the paper's "reduce the stateful
        requirements at least four-fold" claim for the microburst
        example; the state-reduction bench compares it across programs.
        """
        total = 0
        for _name, ext in self.externs():
            bits = getattr(ext, "state_bits", None)
            if bits is not None:
                total += bits
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_load(self, ctx: ProgramContext) -> None:
        """Called once when the program is loaded onto an architecture."""

    def __repr__(self) -> str:
        events = ", ".join(sorted(k.value for k in self._handlers))
        return f"{type(self).__name__}(handles: {events})"
