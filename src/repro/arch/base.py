"""Common machinery shared by all switch architectures.

:class:`SwitchBase` owns the pieces every architecture has — a
traffic manager, a loaded program, the context object handed to
handlers, link state, and event accounting — and defines the external
interface the network substrate drives:

* :meth:`receive` — a packet arrives on an input port,
* :meth:`set_tx_callback` — transmitted packets leave the device,
* :meth:`set_link_status` — the physical layer reports a link change,
* :meth:`control_event` — the control plane triggers an event.

Every event, from every source, flows through the switch's
:class:`~repro.arch.bus.EventBus`: sources publish, the architecture's
routing hook is the bus's subscriber, and program handlers run via the
bus's dispatcher — so counters, latency histograms, and trace sinks
(:mod:`repro.obs`) observe the complete event path in one place.

Subclasses decide *how admitted events reach program handlers*:
synchronously in dedicated logical pipelines
(:class:`~repro.arch.event_driven.LogicalEventSwitch`), through the
Event Merger of a single physical pipeline
(:class:`~repro.arch.sume.SumeEventSwitch`), or not at all
(:class:`~repro.arch.baseline.BaselinePsaSwitch`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.arch.bus import EventBus
from repro.arch.description import ArchitectureDescription, UnsupportedEventError
from repro.arch.events import PIPELINE_PACKET_EVENTS, Event, EventType
from repro.arch.program import P4Program, ProgramContext
from repro.packet.packet import Packet
from repro.pisa.compile import PIPELINE_COMPILE_ENV, make_walk
from repro.pisa.fastpath import FLOW_FASTPATH_ENV, FlowFastpath
from repro.pisa.flowcache import FLOW_CACHE_ENV, UNCACHEABLE, FlowCache, env_enabled
from repro.pisa.metadata import MetadataPool, StandardMetadata
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.state.store import StateStore, make_store
from repro.tm.traffic_manager import TrafficManager

TxCallback = Callable[[Packet, int], None]


class _TmEventHook:
    """Picklable traffic-manager hook firing ``kind`` data-plane events.

    Called positionally by the TM (see :data:`repro.tm.traffic_manager.Hook`);
    builds the :class:`Event` and its ``meta`` once and publishes it.  A
    named callable instead of a closure so whole-switch object graphs
    survive checkpoint pickling (closures don't pickle).
    """

    __slots__ = ("switch", "kind", "_unsupported")

    def __init__(self, switch: "SwitchBase", kind: EventType) -> None:
        self.switch = switch
        self.kind = kind
        # Descriptions are immutable, so support is decided once here
        # instead of per TM transition.
        self._unsupported = not switch.description.supports(kind)

    def __getstate__(self):
        return (self.switch, self.kind)

    def __setstate__(self, state) -> None:
        self.switch, self.kind = state
        # The switch is mid-unpickle here (the hook sits inside its
        # object graph), so support is re-resolved lazily on first use.
        self._unsupported = None

    def __call__(self, pkt, port, queue_id, depth_bytes, user_meta) -> None:
        switch = self.switch
        kind = self.kind
        bus = switch.bus
        unsupported = self._unsupported
        if unsupported is None:
            unsupported = self._unsupported = not switch.description.supports(kind)
        if unsupported and not bus._observers:
            # Suppressed with nobody watching: only the counter is
            # observable, so skip building the Event and its meta.
            bus.suppressed[kind] += 1
            return
        meta = dict(user_meta) if user_meta else {}
        if "pkt_len" not in meta:
            meta["pkt_len"] = pkt.total_len
        meta["port"] = port
        meta["queue_id"] = queue_id
        meta["qdepth_bytes"] = depth_bytes
        meta["buffer_bytes"] = switch.tm.buffer.occupancy_bytes
        # Support was decided above from the same description the bus's
        # admission gate (SwitchBase._admits) consults, so admitted kinds
        # skip the gate; an unsupported kind only gets here with
        # observers attached and goes through the gate to be suppressed
        # in front of them.
        bus.publish(Event(kind, switch.sim._get_now(), pkt, meta), gated=unsupported)


class SwitchContext(ProgramContext):
    """The :class:`ProgramContext` implementation for real switches."""

    def __init__(self, switch: "SwitchBase") -> None:
        self._switch = switch

    @property
    def now_ps(self) -> int:
        return self._switch.sim.now_ps

    def configure_timer(self, timer_id: int, period_ps: int) -> None:
        self._switch.configure_timer(timer_id, period_ps)

    def cancel_timer(self, timer_id: int) -> None:
        self._switch.cancel_timer(timer_id)

    def generate_packet(self, pkt: Packet) -> None:
        self._switch.inject_generated(pkt)

    def raise_user_event(self, meta: Dict[str, int], delay_ps: int = 0) -> None:
        self._switch.raise_user_event(meta, delay_ps)

    def notify_control_plane(self, message: Dict[str, int]) -> None:
        self._switch.notify_control_plane(message)

    def link_up(self, port: int) -> bool:
        return self._switch.link_up(port)

    def queue_depth_bytes(self, port: int, queue_id: int = 0) -> int:
        return self._switch.tm.queue_depth_bytes(port, queue_id)


class SwitchBase:
    """Base switch: ports, traffic manager, program, accounting."""

    #: Full walks of one packet-event kind interpreted before the
    #: pipeline specializer compiles that kind's walk; roughly the
    #: packet count where the compiled walk's savings repay the exec()
    #: cost of generating it.  Keeps fleet-scale topologies (a sharded
    #: fat tree loads dozens of switches) from paying compile cost on
    #: nearly-idle nodes, and a switch whose flows all hit the flow
    #: cache from paying it at all.
    COMPILE_WARMUP = 16

    def __init__(
        self,
        sim: Simulator,
        description: ArchitectureDescription,
        name: str = "switch",
        queues_per_port: int = 1,
        queue_capacity_bytes: int = 64 * 1024,
        buffer_capacity_bytes: Optional[int] = None,
        scheduler_factory=None,
        bus: Optional[EventBus] = None,
        flow_cache: Optional[bool] = None,
        compile: Optional[bool] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.description = description
        self.name = name
        # The central event path: sources publish here, the architecture
        # subclass subscribes its routing hook, and the program handler
        # runs via the bus's dispatcher.  Passing a shared bus merges
        # accounting across switches; the default is one bus per switch.
        self.bus = bus or EventBus(sim, name=f"{name}.bus")
        self.bus.set_admission(self._admits)
        self.bus.set_dispatcher(self._run_handler)
        self.tm = TrafficManager(
            sim,
            port_count=description.port_count,
            queues_per_port=queues_per_port,
            queue_capacity_bytes=queue_capacity_bytes,
            buffer_capacity_bytes=buffer_capacity_bytes,
            port_rate_gbps=description.port_rate_gbps,
            scheduler_factory=scheduler_factory,
            name=f"{name}.tm",
        )
        self.tm.hooks.on_enqueue = self._tm_hook(EventType.ENQUEUE)
        self.tm.hooks.on_dequeue = self._tm_hook(EventType.DEQUEUE)
        self.tm.hooks.on_overflow = self._tm_hook(EventType.BUFFER_OVERFLOW)
        self.tm.hooks.on_underflow = self._tm_hook(EventType.BUFFER_UNDERFLOW)
        self.tm.hooks.on_transmit = self._tm_hook(EventType.PACKET_TRANSMITTED)
        self.tm.fastpath_disrupt = self.fastpath_disrupt
        self.program: Optional[P4Program] = None
        self._bind_handlers()
        self.ctx = SwitchContext(self)
        self.meta_pool = MetadataPool()
        self._tx_callback: Optional[TxCallback] = None
        # Link state as 0/1 ints in a StateStore (per-port state is
        # switch state like any extern's and rides along in checkpoints).
        self._link_up = make_store(description.port_count, 1, name=f"{name}.links")
        self._timers: Dict[int, PeriodicProcess] = {}
        # Aliases of the bus's canonical counters (same dict objects):
        # every reader of switch.events_* observes the bus directly.
        self.events_fired: Dict[EventType, int] = self.bus.fired
        self.events_handled: Dict[EventType, int] = self.bus.handled
        self.events_suppressed: Dict[EventType, int] = self.bus.suppressed
        self.cpu_notifications: List[Dict[str, int]] = []
        self._cpu_callback: Optional[Callable[[Dict[str, int]], None]] = None
        self.rx_packets = 0
        self.dropped_by_program = 0
        # Fault-injection state (repro.faults): a stalled switch stops
        # ingress processing and timer delivery; already-queued packets
        # still drain (the TM keeps serializing).
        self.stalled = False
        self.stalled_rx_drops = 0
        self.stalled_timer_misses = 0
        # The flow-decision cache (repro.pisa.flowcache): memoizes the
        # per-packet pipeline walk behind generation vectors and purity
        # detection.  ``flow_cache=`` overrides the REPRO_FLOW_CACHE
        # environment default (on); see _seat_flow_cache for parking.
        if flow_cache is None:
            flow_cache = env_enabled(FLOW_CACHE_ENV)
        self.flow_cache: Optional[FlowCache] = (
            FlowCache(sim, name=name) if flow_cache else None
        )
        self._parked_flow_cache: Optional[FlowCache] = None
        # Compiled pipeline specialization (repro.pisa.compile): each
        # packet-event runner swaps its interpreted walk for the
        # program's compiled PipelineSpec walk after COMPILE_WARMUP
        # full walks.  ``compile=`` overrides the REPRO_PIPELINE_COMPILE
        # environment default (on).
        if compile is None:
            compile = env_enabled(PIPELINE_COMPILE_ENV)
        self.pipeline_compile = bool(compile)
        # The end-to-end flow fastpath (repro.pisa.fastpath): fuses a
        # fully cached multi-hop delivery into one kernel event.
        # ``fastpath=`` overrides the REPRO_FLOW_FASTPATH environment
        # default (on); only the baseline PSA datapath ever fuses, but
        # the registry lives here so interior hops carry their own
        # stats and fused-window watermark.
        if fastpath is None:
            fastpath = env_enabled(FLOW_FASTPATH_ENV)
        self.flow_fastpath: Optional[FlowFastpath] = (
            FlowFastpath(sim, self, name=name) if fastpath else None
        )

    # ------------------------------------------------------------------
    # Program lifecycle
    # ------------------------------------------------------------------
    def load_program(self, program: P4Program) -> None:
        """Validate and load ``program`` onto this architecture.

        Checks the program's handled events against the architecture
        description (paper §2) and rejects shared state on targets whose
        programming model is single-threaded (paper §7's observation
        about Domino/FlowBlaze-style models).
        """
        self.description.validate_events(program.handled_events())
        if program.shared_registers() and not self.description.supports_shared_state:
            names = ", ".join(reg.name for reg in program.shared_registers())
            raise UnsupportedEventError(
                f"architecture {self.description.name!r} has a single-threaded "
                f"programming model and cannot host shared_register(s): {names}"
            )
        self.program = program
        self._bind_handlers()
        self._seat_flow_cache()
        if self.flow_fastpath is not None:
            # Fused paths memoize this switch's cached decisions; a new
            # program voids them (interior hops are caught by the
            # attach-epoch in the path generation vector).
            self.flow_fastpath.clear()
        program.on_load(self.ctx)

    def _seat_flow_cache(self) -> None:
        """Attach the flow cache to the loaded program, starting cold, or
        park it unbound while the program declares a shared_register.

        Parking saves a per-packet ``flow_key`` and lookup on flows that
        read shared state.  It is safe because cache on ≡ cache off is
        the cache's contract, and shared registers load only on event
        architectures, which never fuse.
        """
        cache = self.flow_cache
        if cache is None:
            # FlowCache defines __len__, so no `or`: an empty cache is falsy.
            cache = self._parked_flow_cache
        if cache is None:
            return
        parked = bool(self._shared_regs)
        cache.attach(None if parked else self.program)
        self.flow_cache = None if parked else cache
        self._parked_flow_cache = cache if parked else None

    def require_program(self) -> P4Program:
        """The loaded program; raises if none is loaded."""
        if self.program is None:
            raise RuntimeError(f"switch {self.name!r} has no program loaded")
        return self.program

    # ------------------------------------------------------------------
    # External interface (driven by the network substrate)
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, port: int) -> None:
        """A packet arrives on input ``port``."""
        raise NotImplementedError

    def set_tx_callback(self, callback: TxCallback) -> None:
        """Register where transmitted packets go."""
        self._tx_callback = callback

    def set_link_status(self, port: int, up: bool) -> None:
        """The physical layer reports a link transition on ``port``."""
        if not 0 <= port < len(self._link_up):
            raise IndexError(f"port {port} out of range")
        if bool(self._link_up[port]) == up:
            return
        self.fastpath_disrupt()
        self._link_up[port] = int(up)
        self.tm.set_port_enabled(port, up)
        if self.description.supports(EventType.LINK_STATUS):
            self.fire_event(
                Event(
                    kind=EventType.LINK_STATUS,
                    time_ps=self.sim.now_ps,
                    meta={"port": port, "up": int(up)},
                )
            )

    def link_up(self, port: int) -> bool:
        """Current link status of ``port``."""
        return bool(self._link_up[port])

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def stall(self) -> None:
        """Freeze the switch: ingress packets are dropped at the door and
        periodic timers stop delivering until :meth:`unstall`.

        Packets already accepted into the traffic manager keep draining —
        a stalled ASIC's serializers do not un-send what they queued.
        """
        self.fastpath_disrupt()
        self.stalled = True

    def unstall(self) -> None:
        """Resume ingress processing and timer delivery."""
        self.fastpath_disrupt()
        self.stalled = False

    def fastpath_disrupt(self) -> None:
        """Materialize in-flight fused deliveries crossing this switch.

        Every disruption entry point (link transition, stall/unstall,
        TM port pause, impairment attach, fault-injector checkpoint)
        calls this before mutating state, so a fused window never
        straddles a change it could not have seen; the packets finish
        their journeys on the ordinary per-hop code paths."""
        fastpath = self.flow_fastpath
        if fastpath is not None and fastpath._active:
            fastpath.disrupt()

    def control_event(self, meta: Dict[str, int]) -> None:
        """The control plane triggers a CONTROL_PLANE event."""
        if not self.description.supports(EventType.CONTROL_PLANE):
            raise UnsupportedEventError(
                f"architecture {self.description.name!r} has no "
                f"control-plane-triggered events"
            )
        self.fire_event(
            Event(kind=EventType.CONTROL_PLANE, time_ps=self.sim.now_ps, meta=dict(meta))
        )

    # ------------------------------------------------------------------
    # Services used by SwitchContext
    # ------------------------------------------------------------------
    def configure_timer(self, timer_id: int, period_ps: int) -> None:
        """Arm (or re-arm) periodic timer ``timer_id``."""
        if not self.description.supports(EventType.TIMER):
            raise UnsupportedEventError(
                f"architecture {self.description.name!r} has no timer events"
            )
        existing = self._timers.get(timer_id)
        if existing is not None:
            existing.stop()
        process = PeriodicProcess(
            self.sim,
            period_ps,
            partial(self._timer_fired, timer_id),
            name=f"{self.name}.timer{timer_id}",
        )
        self._timers[timer_id] = process
        process.start()

    def cancel_timer(self, timer_id: int) -> None:
        """Disarm periodic timer ``timer_id`` (no-op if not armed)."""
        process = self._timers.pop(timer_id, None)
        if process is not None:
            process.stop()

    def _timer_fired(self, timer_id: int) -> None:
        if self.stalled:
            self.stalled_timer_misses += 1
            return
        self.fire_event(
            Event(
                kind=EventType.TIMER,
                time_ps=self.sim.now_ps,
                meta={"timer_id": timer_id},
            )
        )

    def inject_generated(self, pkt: Packet) -> None:
        """Inject a program/generator-built packet into the ingress path."""
        raise NotImplementedError

    def raise_user_event(self, meta: Dict[str, int], delay_ps: int = 0) -> None:
        """Fire a USER event, optionally after ``delay_ps``."""
        if not self.description.supports(EventType.USER):
            raise UnsupportedEventError(
                f"architecture {self.description.name!r} has no user events"
            )
        if delay_ps:
            self.sim.call_after(delay_ps, self._fire_user_event, dict(meta))
        else:
            self._fire_user_event(meta)

    def _fire_user_event(self, meta: Dict[str, int]) -> None:
        self.fire_event(
            Event(kind=EventType.USER, time_ps=self.sim.now_ps, meta=dict(meta))
        )

    def notify_control_plane(self, message: Dict[str, int]) -> None:
        """Record (and deliver) a digest to the control plane."""
        self.cpu_notifications.append(dict(message))
        if self._cpu_callback is not None:
            self._cpu_callback(dict(message))

    def set_cpu_callback(self, callback: Callable[[Dict[str, int]], None]) -> None:
        """Register the control plane's digest receiver."""
        self._cpu_callback = callback

    # ------------------------------------------------------------------
    # Event plumbing (all of it runs through the EventBus)
    # ------------------------------------------------------------------
    def _admits(self, event: Event) -> bool:
        """The bus's admission gate: the architecture description."""
        return self.description.supports(event.kind)

    def fire_event(self, event: Event) -> None:
        """Publish a fired event to the bus.

        The bus suppresses events the architecture description does not
        expose: the underlying state transition happened (the TM still
        dropped the packet), but the programming model never sees it —
        the precise gap the paper describes for baseline targets.
        Admitted events reach whatever the architecture subscribed to
        the bus: the SUME merger, or the logical and emulated switches'
        ``_route_event``.  The baseline subscribes nothing, because it
        admits only packet events, which the pipeline path publishes
        unrouted.
        """
        self.bus.publish(event)

    def _bind_handlers(self) -> None:
        """Snapshot the program's shared registers and its ``kind →
        (handler, thread tag)`` table, read by :meth:`_run_handler`, and
        void the packet-event runners; :meth:`_dispatch_packet_event`
        rebinds them on its next call.

        Also empties ``_ingress_key``, the slot in which an
        architecture's receive path hands an ingress walk's flow key to
        the INGRESS_PACKET runner (which consumes it)."""
        self._runners = None
        self._ingress_key = None
        program = self.program
        if program is None:
            self._shared_regs, self._event_handlers = (), {}
            return
        self._shared_regs = tuple(program.shared_registers())
        self._event_handlers = {
            kind: (fn, kind.value) for kind, fn in program._handlers.items()
        }

    def _run_handler(self, event: Event) -> bool:
        """The bus's dispatcher: run the handler for a non-pipeline event."""
        bound = self._event_handlers.get(event.kind)
        if bound is None:
            return False
        fn, thread = bound
        regs = self._shared_regs
        if not regs:
            fn(self.ctx, event)
            return True
        for reg in regs:
            reg._thread = thread
        try:
            fn(self.ctx, event)
        finally:
            for reg in regs:
                reg._thread = None
        return True

    def _dispatch_packet_event(
        self, kind: EventType, pkt: Packet, meta: StandardMetadata
    ) -> None:
        """Publish and run a pipeline packet event.

        Delivery for these events *is* the pipeline traversal, so the
        bus records the publish without routing (``route=False``) and
        the handler runs inline with mutable standard metadata; the
        description gate does not apply (handler sets were validated at
        program load).
        """
        runners = self._runners
        if runners is None:
            if self.program is None:
                return
            runners = self._bind_runners()
        run = runners.get(kind)
        bus = self.bus
        if not bus._observers:
            # Pipeline handlers receive (ctx, pkt, meta), never the
            # Event record itself, so with nobody watching the bus only
            # the counters matter — skip building the Event.
            bus.fired[kind] += 1
            if run is not None:
                run(pkt, meta)
                bus.handled[kind] += 1
            return
        event = Event(kind=kind, time_ps=self.sim.now_ps, pkt=pkt)
        bus.publish(event, route=False, gated=False)
        if run is not None:
            run(pkt, meta)
        bus.delivered(event, handled=run is not None)

    def _bind_runners(self, compile_now: bool = False):
        """Bind one runner per pipeline packet event the loaded program
        handles and return the ``kind → runner`` table.

        Runs on the first dispatch after construction, a program load,
        or an unpickle (closures don't survive checkpoints).  With
        ``compile_now`` every compilable walk is generated here instead
        of after its warm-up."""
        program = self.program
        self._runners = runners = {}
        for kind in PIPELINE_PACKET_EVENTS:
            fn = program.handler_for(kind)
            if fn is not None:
                runners[kind] = self._runner(kind, fn, compile_now)
        return runners

    def _runner(self, kind: EventType, fn, compile_now: bool):
        """The ``(pkt, meta)`` runner for one packet-event kind.

        A flow the attached flow cache holds is replayed; a new flow is
        recorded with the interpreted handler; anything else (no cache,
        a known-impure flow) runs the full walk in ``cell[0]``.  The
        ingress runner takes its flow key from ``_ingress_key`` when the
        receive path left one there, and computes it otherwise; the
        egress runner's key also carries ``meta.egress_port``.  The
        cell starts as the handler and becomes the program's compiled
        :class:`~repro.pisa.compile.PipelineSpec` walk after
        :attr:`COMPILE_WARMUP` full walks of this kind; the walk's
        generation guard swaps it again through the same cell.  The
        cache is read live, so parking and re-attach need no rebind."""
        switch, ctx, program = self, self.ctx, self.program
        regs, thread = self._shared_regs, kind.value
        keyed = kind is EventType.INGRESS_PACKET
        pipeline = self._pipeline_for_kind(kind)
        cell = [fn]
        warmup = self.COMPILE_WARMUP if self.pipeline_compile else -1
        if compile_now:
            cell[0] = make_walk(program, kind, cell) or fn
            warmup = -1

        def run(pkt: Packet, meta: StandardMetadata) -> None:
            nonlocal warmup
            cache = switch.flow_cache
            if cache is not None:
                key = switch._ingress_key if keyed else None
                if key is None:
                    key = cache.flow_key(kind, pkt, meta)
                else:
                    switch._ingress_key = None
                entry = cache.lookup(key)
                if entry is None:
                    # First traversal of this flow: run it under the
                    # recording harness and memoize the decision.
                    rec, rctx, rmeta = cache.begin(ctx, pkt, meta)
                    for reg in regs:
                        reg._thread = thread
                    try:
                        fn(rctx, pkt, rmeta)
                    except BaseException:
                        cache.abort(rec)
                        raise
                    finally:
                        for reg in regs:
                            reg._thread = None
                    cache.commit(rec, key, pkt, meta)
                    return
                if entry is not UNCACHEABLE:
                    cache.replay(entry, pkt, meta)
                    if pipeline is not None:
                        pipeline.walks_elided += 1
                    return
            # No cache, or a known-impure flow: the walk runs in full.
            if warmup >= 0:
                if not warmup:
                    cell[0] = make_walk(program, kind, cell) or fn
                warmup -= 1
            if not regs:
                cell[0](ctx, pkt, meta)
                return
            for reg in regs:
                reg._thread = thread
            try:
                cell[0](ctx, pkt, meta)
            finally:
                for reg in regs:
                    reg._thread = None

        return run

    def _pipeline_for_kind(self, kind: EventType):
        """The :class:`~repro.pisa.pipeline.Pipeline` a packet event of
        ``kind`` traverses, for walk-elision accounting; None when the
        architecture keeps no such pipeline."""
        return None

    def _tm_hook(self, kind: EventType) -> "_TmEventHook":
        """A traffic-manager hook that fires ``kind`` data-plane events.

        Every architecture's TM transitions fire events; whether the
        programming model sees them is decided by :meth:`fire_event`
        against the architecture description (baseline PSA suppresses
        all of them — the paper's motivating gap).
        """
        return _TmEventHook(self, kind)

    # ------------------------------------------------------------------
    # State introspection (checkpoint manifests and reports)
    # ------------------------------------------------------------------
    def state_stores(self) -> List[StateStore]:
        """Every :class:`StateStore` this switch owns.

        Covers the per-port link store plus the backing stores of every
        stateful extern the loaded program declares (via each extern's
        ``stores()`` method).  Subclasses extend this with
        architecture-specific state.
        """
        stores: List[StateStore] = [self._link_up]
        if self.program is not None:
            for _attr, extern in self.program.externs():
                stores_fn = getattr(extern, "stores", None)
                if stores_fn is not None:
                    stores.extend(stores_fn())
        return stores

    def state_summary(self) -> List[Dict[str, object]]:
        """Manifest rows (:meth:`StateStore.describe`) for this switch."""
        return [store.describe() for store in self.state_stores()]

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def events_fired_of(self, kind) -> int:
        """Fired count for an event kind (EventType or its value string)."""
        if isinstance(kind, str):
            kind = EventType(kind)
        return self.events_fired[kind]

    def events_handled_of(self, kind) -> int:
        """Handled count for an event kind (EventType or its value string)."""
        if isinstance(kind, str):
            kind = EventType(kind)
        return self.events_handled[kind]

    # ------------------------------------------------------------------
    # Pickling (checkpoints pickle whole-switch object graphs)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # Derived from the program: the handler table is rebuilt by
        # __setstate__, the runners (closures don't pickle) on the
        # first dispatch after restore.  The ingress key lives for one
        # dispatch only.
        del state["_event_handlers"], state["_runners"], state["_ingress_key"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_handlers()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmit(self, pkt: Packet, port: int) -> None:
        if self._tx_callback is not None:
            self._tx_callback(pkt, port)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, arch={self.description.name})"
