"""End-to-end flow fastpath: fuse a whole multi-hop delivery into one event.
Design, eligibility rules, and knobs: [PERFORMANCE.md](PERFORMANCE.md#flow-fastpath).

The flow cache (:mod:`repro.pisa.flowcache`) elides the pipeline *walk*
but still pays the full event cadence per hop: ingress-latency event,
TM kick, serialization event, egress-latency event, link propagation —
five to seven kernel events per switch.  For a flow whose decision at
**every** switch on its path is cached and pure, all of that is static:
the rewrites, the egress ports, the per-hop latencies, and therefore
the end-to-end arrival time are known the moment the packet enters the
first switch.  The fastpath exploits this the way psim's flow
abstraction collapses per-packet hops: it walks the path once, records
a :class:`_PathEntry`, and thereafter schedules **one** kernel event at
the precomputed arrival time.  The event replays every hop's recorded
blind writes (counters, sketches, Bloom filters, windows) in hop order
and performs the exact per-hop bookkeeping the per-hop machinery would
have done — bus fired/suppressed/handled counters, pipeline throughput,
TM/queue/buffer/port statistics, link conservation ledgers — so the
final state is byte-identical to the per-hop reference.

Correctness is guarded at three levels:

* **Path-level generation vector** — the fused entry stores every
  on-path switch's flow-cache generation vector plus each on-path
  link's epoch (bumped on status flips and impairment attaches) and
  each bus's observer epoch.  Any control-plane mutation, fault
  injection, ``LinkImpairment`` attach, or observer attach mismatches
  the vector: the path entry is invalidated and the packet falls back
  to per-hop execution (which re-records), unless the hop's entries
  survive :meth:`~repro.pisa.flowcache.FlowCache.revalidate`.
* **Entry identity** — each hop's cached :class:`_Entry` objects are
  re-checked by identity against the live cache at fuse time, so
  ``clear()``, re-``attach()``, and LRU eviction all invalidate.
* **Quiescence** — fusing is only exact when nothing else can interact
  with the path while the packet is (virtually) in flight.  The fuse
  check requires every on-path switch to be idle (empty shared buffer,
  idle egress port, no armed timers, not stalled, no pending fused
  window) and its radius-1 neighborhood quiet (no packets in flight on
  any incident link, no adjacent host NIC mid-serialization).  Paths
  whose serialization time exceeds the incoming link latency are never
  fused, so a same-path follower can never catch a fused packet's
  transmit window.  Anything busy → per-hop fallback, counted by
  reason.  The entry switch runs the same checks at hop 0 before it
  walks a path at all, and a path built against a smaller network
  (one that gained a link since) is stale.
* **Disruption-time materialization** — generations and quiescence
  guard the *fuse* decision; they cannot guard the window itself: a
  fault callback can land while a fused delivery is (virtually) in
  flight.  Every fused delivery is therefore registered as a
  :class:`_Flight` on each hop's fastpath, and every disruption entry
  point — link status flip, impairment attach, ``stall``/``unstall``,
  TM port pause, fault-injector checkpoint — calls
  :meth:`FlowFastpath.disrupt` on the switches it touches.  Disrupt
  cancels the fused event, retroactively applies the bookkeeping of
  the hops the packet already (virtually) completed, and re-injects
  the packet into the *real* per-hop machinery at its current virtual
  stage: the ingress pipeline (``_ingress_done``), mid-serialization
  (``TrafficManager._finish_tx``), the egress pipeline
  (``_transmit``), or the wire (``Link._deliver``) — each at its
  original per-hop timestamp.  From there the ordinary code paths
  see the disruption exactly as the per-hop reference would, so even
  a fault in the middle of a fused window stays byte-identical.

The fastpath is per-switch, enabled by default, and disabled with the
``REPRO_FLOW_FASTPATH=0`` environment variable or the switch's
``fastpath=False`` constructor argument.  Path state follows the flow
cache's lifecycle rules: a new switch, a checkpoint restore and
``Simulator.fork()`` all start cold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.events import EventType
from repro.packet.headers import field_getter
from repro.pisa.flowcache import UNCACHEABLE, _flow_key_flat, _FlowMemo, flow_key
from repro.sim.units import bytes_to_time_ps
from repro.tm.scheduler import FifoScheduler, StrictPriorityScheduler

__all__ = [
    "FLOW_FASTPATH_ENV",
    "FlowFastpath",
    "FastpathStats",
    "can_fuse",
]

#: Environment toggle: ``0``/``false``/``off`` disables the fastpath
#: (parsed by :func:`repro.pisa.flowcache.env_enabled`).
FLOW_FASTPATH_ENV = "REPRO_FLOW_FASTPATH"


#: TM transition kinds the fused delivery accounts as suppressed; a
#: description that *admits* any of these would fire real events per
#: hop, which the fused path cannot reproduce — such switches are
#: structurally ineligible.
_TM_EVENT_KINDS = (
    EventType.ENQUEUE,
    EventType.DEQUEUE,
    EventType.BUFFER_OVERFLOW,
    EventType.BUFFER_UNDERFLOW,
    EventType.PACKET_TRANSMITTED,
)

#: Schedulers whose dequeue decision is stateless FIFO-by-priority; a
#: DRR or PIFO port carries scheduling state the fused hop would skip.
_PURE_SCHEDULERS = (FifoScheduler, StrictPriorityScheduler)

#: ``(BaselinePsaSwitch, Link, Host)``, bound on first use to avoid the
#: base ← fastpath ← baseline/net import cycles (see :func:`_classes`).
_CLASSES: Optional[tuple] = None

#: Hop-count safety bound for the path walk.
_MAX_HOPS = 16

_INGRESS = EventType.INGRESS_PACKET
_EGRESS = EventType.EGRESS_PACKET
_ENQ = EventType.ENQUEUE
_DEQ = EventType.DEQUEUE
_BUF_UND = EventType.BUFFER_UNDERFLOW
_PKT_TX = EventType.PACKET_TRANSMITTED

#: Replay granularity for one hop's bookkeeping (materialization): how
#: far through the hop the packet had virtually progressed.
_STAGE_DEQUEUED = 0  # through TM admission + dequeue (serialization began)
_STAGE_SWITCH = 1  # plus serialization end + the egress pipeline
_STAGE_FULL = 2  # plus the link ledger (arrived at the next node)


def _classes() -> tuple:
    global _CLASSES
    if _CLASSES is None:
        from repro.arch.baseline import BaselinePsaSwitch
        from repro.net.host import Host
        from repro.net.link import Link

        _CLASSES = (BaselinePsaSwitch, Link, Host)
    return _CLASSES


def can_fuse(switch) -> bool:
    """Whether a fused path may ever cross ``switch``: its fastpath is on
    and it is a baseline PSA switch, the only architecture
    :meth:`FlowFastpath._build` walks (any other is declined as
    ``"architecture"``).  A static fact of the build, blind to programs,
    caches and traffic."""
    return switch.flow_fastpath is not None and type(switch) is _classes()[0]


def _unquiet(sw, fp, port_obj, buffer, links, hosts, now: int) -> Optional[str]:
    """Why ``sw`` cannot take a fused hop out of ``port_obj`` at ``now``,
    or None when it is quiet: not stalled, no armed timers, no fused
    window still leaving (``fp``), the port idle and enabled, the shared
    ``buffer`` empty, and the radius-1 neighborhood (incident ``links``,
    adjacent ``hosts``) idle.  The fuse check runs it at every hop;
    :meth:`FlowFastpath._entry_unquiet` at hop 0 before a path walk."""
    if sw.stalled:
        return "stalled"
    if sw._timers:
        return "timers"
    if fp._quiet_until_ps > now or port_obj.busy or not port_obj.enabled:
        return "busy"
    if buffer.occupancy_bytes:
        return "queued"
    for link in links:
        if link.in_flight:
            return "neighborhood"
    for host in hosts:
        if host._tx_busy or host._tx_queue:
            return "neighborhood"
    return None


class FastpathStats:
    """Path/fusion accounting, surfaced by ``repro events-stats``."""

    __slots__ = ("paths_built", "fused", "materialized", "invalidations", "fallbacks")

    def __init__(self) -> None:
        self.paths_built = 0
        self.fused = 0
        #: Fused deliveries cancelled by a mid-window disruption and
        #: re-injected into the per-hop machinery (still delivered).
        self.materialized = 0
        self.invalidations = 0
        #: Per-hop fallbacks by reason (entry retained): reason -> count.
        self.fallbacks: Dict[str, int] = {}

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    @property
    def fallbacks_total(self) -> int:
        return sum(self.fallbacks.values())

    @property
    def fuse_rate(self) -> float:
        total = self.fused + self.fallbacks_total
        return self.fused / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "paths_built": self.paths_built,
            "fused": self.fused,
            "materialized": self.materialized,
            "fallbacks": self.fallbacks_total,
            "invalidations": self.invalidations,
            "fallback_reasons": dict(sorted(self.fallbacks.items())),
        }

    def __repr__(self) -> str:
        return (
            f"FastpathStats(paths_built={self.paths_built}, "
            f"fused={self.fused}, materialized={self.materialized}, "
            f"fallbacks={self.fallbacks_total}, "
            f"invalidations={self.invalidations})"
        )


class _Unfusable:
    """Negative path entry: this flow can never fuse under ``sig``.

    ``sig`` pins the hop-1 cache signature (attach epoch + generation
    vector); any table/route mutation or program reload re-probes, so a
    flow that *becomes* fusable after control-plane convergence is not
    stuck behind a stale verdict.
    """

    __slots__ = ("sig", "reason")

    def __init__(self, sig: tuple, reason: str) -> None:
        self.sig = sig
        self.reason = reason


class _Hop:
    """One switch traversal inside a fused path.

    Besides the decision itself, the hop prebinds every object the
    per-packet validate/deliver steps touch (stat dicts, pipelines,
    buffer, queue stats) so the fused path never re-walks attribute
    chains — the per-hop cost is the counter bumps, nothing else.
    Built from one row of :meth:`FlowFastpath._build`'s walk, once the
    walk has reached a host (nothing it reads can change mid-walk).
    """

    __slots__ = (
        "switch",
        "cache",
        "fp",
        "rx_port",
        "ingress_key",
        "ingress_entry",
        "egress_key",
        "egress_entry",
        "egress_spec",
        "port_obj",
        "link",
        "link_epoch",
        "rate_gbps",
        "dep_gens",
        "entries",
        "bus",
        "fired",
        "handled",
        "suppressed",
        "cache_stats",
        "ingress_pipeline",
        "egress_pipeline",
        "tm",
        "buffer",
        "qstats",
        "observer_epoch",
        "tx_time_ps",
        "length",
        "d_enq",
        "d_leave",
        "d_exit",
        "incident_links",
        "neighbor_hosts",
        "port_links",
        "link_count",
    )

    def __init__(
        self,
        sw,
        rx_port,
        ingress_key,
        ingress_entry,
        egress_key,
        egress_entry,
        port_obj,
        link,
        queue_id,
        tx_time_ps,
        length,
        d_enq,
        nbhd,
        port_links,
    ) -> None:
        bus = sw.bus
        cache = sw.flow_cache
        self.switch = sw
        self.cache = cache
        self.fp = sw.flow_fastpath
        self.rx_port = rx_port
        self.ingress_key = ingress_key
        self.ingress_entry = ingress_entry
        self.egress_key = egress_key
        self.egress_entry = egress_entry
        self.egress_spec = ingress_entry.egress_spec
        self.port_obj = port_obj
        self.link = link
        self.link_epoch = link.epoch
        self.rate_gbps = port_obj.rate_gbps
        self.dep_gens = tuple((dep, dep.generation) for dep in cache._deps)
        self.entries = cache._entries
        self.bus = bus
        self.fired = bus.fired
        self.handled = bus.handled
        self.suppressed = bus.suppressed
        self.cache_stats = cache.stats
        self.ingress_pipeline = sw.ingress_pipeline
        self.egress_pipeline = sw.egress_pipeline
        self.tm = sw.tm
        self.buffer = sw.tm.buffer
        self.qstats = port_obj.queues[queue_id].stats
        self.observer_epoch = bus.observer_epoch
        self.tx_time_ps = tx_time_ps
        self.length = length
        self.d_enq = d_enq
        self.d_leave = d_enq + tx_time_ps + sw.egress_pipeline.latency_ps
        self.d_exit = self.d_leave + link.latency_ps
        # The neighborhood holds while the network's switch-port map
        # keeps the link count it had when the path was built.
        self.incident_links, self.neighbor_hosts = nbhd
        self.port_links = port_links
        self.link_count = len(port_links)


class _Flight:
    """One in-flight fused delivery.

    Registered on every hop's fastpath the moment the fused event is
    scheduled, so any mid-window disruption on any on-path switch can
    cancel the event and materialize the packet back into the per-hop
    machinery (:meth:`FlowFastpath.disrupt`)."""

    __slots__ = ("event", "path", "pkt", "t0", "done")


class _PathEntry:
    """One fused multi-hop delivery: hops, timing, and the terminal host."""

    __slots__ = ("hops", "host", "host_port", "d_end")

    def __init__(
        self, hops: Tuple[_Hop, ...], host: Host, host_port: int, d_end: int
    ) -> None:
        self.hops = hops
        self.host = host
        self.host_port = host_port
        self.d_end = d_end


class FlowFastpath(_FlowMemo):
    """Per-switch registry of fused end-to-end paths, keyed by flow.

    Owned by the *entry* switch of each path; interior hops contribute
    their cached entries and their quiescence but keep no path state of
    their own (beyond the transient fused-window watermark).
    """

    #: Default maximum number of path entries (positive or negative).
    DEFAULT_LIMIT = 1024
    _NOUN = "fastpath"

    __slots__ = (
        "sim",
        "switch",
        "limit",
        "name",
        "stats",
        "_paths",
        "_active",
        "_quiet_until_ps",
        "_nbhd",
        "_verdict",
    )

    def __init__(self, sim, switch, limit: int = DEFAULT_LIMIT, name: str = "") -> None:
        self.switch = switch
        super().__init__(sim, limit, name)

    def _start_cold(self) -> None:
        """No paths, flights or memos, and zeroed stats."""
        self.stats = FastpathStats()
        self._paths: Dict[tuple, object] = {}
        #: In-flight fused deliveries crossing this switch (as any hop).
        self._active: List[_Flight] = []
        #: End of the latest fused transmit window crossing this switch;
        #: a new fuse through this switch must start at or after it.
        self._quiet_until_ps = 0
        #: ``(network, link count, neighborhood)`` — see :meth:`_neighborhood`.
        self._nbhd: Optional[tuple] = None
        #: ``(program, description, reason)`` — see :meth:`_program_verdict`.
        self._verdict: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle (same cold-start rules as the flow cache)
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every path entry (entries only; stats survive).

        A program reload mid-run is a disruption like any other: any
        fused delivery crossing this switch is materialized first so
        its remaining hops run against the new program."""
        self.disrupt()
        self._paths.clear()

    # Checkpoints and forks drop the fused paths: a restored simulation
    # starts cold and rebuilds warm, so resumed runs never fuse against
    # pre-checkpoint topology or cache state.
    def __getstate__(self):
        return {**super().__getstate__(), "switch": self.switch}

    def __setstate__(self, state) -> None:
        self.switch = state["switch"]
        super().__setstate__(state)

    # ------------------------------------------------------------------
    # Entry point (called by the owning switch's receive path)
    # ------------------------------------------------------------------
    def handle(self, pkt, port: int) -> Optional[tuple]:
        """Try to fuse the delivery of ``pkt``; None when one event was
        scheduled and the caller must not run the per-hop path, else the
        declined packet's ingress flow key for that path to reuse.

        The key is :func:`~repro.pisa.flowcache.flow_key` of the
        packet's ingress walk at this switch and ``port``."""
        key = flow_key(_INGRESS, port, pkt)
        sw = self.switch
        if sw.bus._observers:
            # Observers need per-hop event visibility; skip before the
            # path build so an instrumented run never thrashes entries.
            self.stats.fallback("observer")
            return key
        path = self._paths.get(key)
        if type(path) is _Unfusable:
            if path.sig == self._hop1_sig():
                self.stats.fallback(path.reason)
                return key
            del self._paths[key]
            self.stats.invalidations += 1
            path = None
        if path is None:
            if self._declined_at_entry(key):
                return key
            path = self._build(pkt, port, key)
            if path is None:
                return key
        now = self.sim.now_ps
        verdict = self._validate(path, now)
        if verdict is not None:
            stale, reason = verdict
            self.stats.fallback(reason)
            if stale:
                del self._paths[key]
                self.stats.invalidations += 1
            return key
        flight = _Flight()
        flight.path = path
        flight.pkt = pkt
        flight.t0 = now
        flight.done = False
        flight.event = self.sim.call_after(path.d_end, self._finish, flight)
        for hop in path.hops:
            fp = hop.fp
            fp._quiet_until_ps = now + hop.d_leave
            fp._active.append(flight)
        self.stats.fused += 1
        return None

    def _declined_at_entry(self, key: tuple) -> bool:
        """Whether hop 0 already answers the path walk :meth:`_build`
        would make for ``key``, so the packet declines without one.

        Once this switch passes the structural checks the walk makes at
        hop 0 before its first cache probe (a baseline PSA, its own
        fastpath, a program with an ingress handler and no TM event
        kind admitted), a flow whose hop-0 decision is not recorded
        yet, or is stale, declines silently (the walk would stop there
        and store nothing), and a recorded flow declines when hop 0 is
        not quiet towards the egress port its entry names
        (:meth:`_entry_unquiet`; the fuse check would fail there),
        counted under that reason."""
        sw = self.switch
        cache = sw.flow_cache
        program = sw.program
        if (
            cache is None
            or type(sw) is not _classes()[0]
            or sw.flow_fastpath is not self
            or program is None
            or self._program_verdict(program, sw.description) is not None
        ):
            return False
        entry = cache._entries.get(key)
        if entry is UNCACHEABLE:
            return False
        if entry is None or (
            entry.genvec != cache._generation_vector() and not cache.revalidate(entry)
        ):
            return True
        reason = self._entry_unquiet(entry)
        if reason is None:
            return False
        self.stats.fallback(reason)
        return True

    def _entry_unquiet(self, entry) -> Optional[str]:
        """:func:`_unquiet` at this switch towards ``entry``'s egress
        port; None as well when :meth:`_build` would stop at hop 0 on a
        structural check first (no such port, unwired, boundary)."""
        sw = self.switch
        tm = sw.tm
        spec = entry.egress_spec
        if not isinstance(spec, int) or not 0 <= spec < tm.port_count:
            return None
        network = getattr(sw._tx_callback, "network", None)
        if network is None:
            return None
        nbhd = self._neighborhood(network)
        if nbhd is None:
            return None
        return _unquiet(sw, self, tm.ports[spec], tm.buffer, *nbhd, self.sim.now_ps)

    def _program_verdict(self, program, description) -> Optional[str]:
        """The negative reason :meth:`_build` records at this switch for
        its program and description, or None: ``"architecture"`` when
        the description admits a TM event kind, ``"steer"`` when the
        program handles no ingress packets.  Memoised per ``(program,
        description)``."""
        memo = self._verdict
        if memo is None or memo[0] is not program or memo[1] is not description:
            reason = None
            if any(description.supports(kind) for kind in _TM_EVENT_KINDS):
                reason = "architecture"
            elif program.handler_for(_INGRESS) is None:
                reason = "steer"
            memo = self._verdict = (program, description, reason)
        return memo[2]

    # ------------------------------------------------------------------
    # Fuse-time validation
    # ------------------------------------------------------------------
    def _validate(self, path: _PathEntry, now: int):
        """None when the path may fuse right now; otherwise a
        ``(stale, reason)`` pair — ``stale`` drops the entry."""
        for hop in path.hops:
            sw = hop.switch
            if sw.flow_cache is not hop.cache:
                return (True, "cache")
            entries = hop.entries
            if entries.get(hop.ingress_key) is not hop.ingress_entry:
                return (True, "entry")
            if (
                hop.egress_key is not None
                and entries.get(hop.egress_key) is not hop.egress_entry
            ):
                return (True, "entry")
            # ``dep_gens``: the generations the entries were last checked at.
            for dep, gen in hop.dep_gens:
                if dep.generation != gen:
                    cache = hop.cache
                    genvec = cache._generation_vector()
                    for entry in filter(None, (hop.ingress_entry, hop.egress_entry)):
                        if entry.genvec != genvec and not cache.revalidate(entry):
                            return (True, "generation")
                    hop.dep_gens = tuple(zip(cache._deps, genvec))
                    break
            link = hop.link
            if link.epoch != hop.link_epoch or not link.up:
                return (True, "link")
            if len(hop.port_links) != hop.link_count:
                # The network gained a link since the build: the bound
                # neighborhood may miss it.
                return (True, "topology")
            bus = hop.bus
            if bus._observers or bus.observer_epoch != hop.observer_epoch:
                return (True, "observer")
            fp = hop.fp
            if sw.flow_fastpath is not fp:
                return (True, "disabled")
            port_obj = hop.port_obj
            if port_obj.rate_gbps != hop.rate_gbps:
                return (True, "rate")
            reason = _unquiet(
                sw,
                fp,
                port_obj,
                hop.buffer,
                hop.incident_links,
                hop.neighbor_hosts,
                now,
            )
            if reason is not None:
                return (False, reason)
        return None

    # ------------------------------------------------------------------
    # Fused delivery: one event, every hop's bookkeeping, in hop order
    # ------------------------------------------------------------------
    def _finish(self, flight: _Flight) -> None:
        """The fused event: unregister the flight, then deliver.

        Dropping the event handle first breaks the flight ↔ event-args
        cycle: the kernel recycles the shell, and the flight and its
        packet die by refcount instead of waiting for a full collection."""
        flight.done = True
        flight.event = None
        for hop in flight.path.hops:
            try:
                hop.fp._active.remove(flight)
            except ValueError:
                pass
        self._deliver(flight.path, flight.pkt, flight.t0)

    def _deliver(self, path: _PathEntry, pkt, t0: int) -> None:
        """Replay every hop's bookkeeping and blind writes, in hop order."""
        for hop in path.hops:
            self._replay_hop(hop, pkt, t0, _STAGE_FULL)
        path.host.receive(pkt, path.host_port)

    def _replay_hop(self, hop: _Hop, pkt, t0: int, stage: int) -> None:
        """One hop's bookkeeping and blind writes, up to ``stage``.

        Each entry replays through :meth:`_Entry.apply`; the fused hop
        keeps no standard-metadata object, so the steering fields come
        straight from the ingress entry.  The writes are grouped by the
        per-hop machinery's own timeline so a materialization can
        truncate the replay mid-hop: everything through
        :data:`_STAGE_DEQUEUED` lands at TM admission time, the
        :data:`_STAGE_SWITCH` tail at serialization end, and the
        :data:`_STAGE_FULL` link ledger at wire exit."""
        pkt_meta = pkt.meta
        sw = hop.switch
        sw.rx_packets += 1
        pkt.ingress_port = hop.rx_port
        fired = hop.fired
        handled = hop.handled
        suppressed = hop.suppressed
        cache_stats = hop.cache_stats
        fired[_INGRESS] += 1
        entry = hop.ingress_entry
        cache_stats.hits += 1
        entry.apply(pkt)
        handled[_INGRESS] += 1
        pipeline = hop.ingress_pipeline
        pipeline.packets_processed += 1
        pipeline.walks_elided += 1
        pkt.egress_port = entry.egress_spec
        pkt.queue_id = entry.queue_id
        pkt.priority = entry.priority
        pkt_meta["enq_meta"] = dict(entry.enq_meta) if entry.enq_meta else {}
        pkt_meta["deq_meta"] = dict(entry.deq_meta) if entry.deq_meta else {}
        length = hop.length
        tm = hop.tm
        tm.total_enqueued += 1
        tm.total_dequeued += 1
        buf = hop.buffer
        buf.admitted_packets += 1
        if length > buf.max_occupancy_bytes:
            buf.max_occupancy_bytes = length
        qstats = hop.qstats
        qstats.enqueued_packets += 1
        qstats.enqueued_bytes += length
        if length > qstats.max_depth_bytes:
            qstats.max_depth_bytes = length
        if qstats.max_depth_packets < 1:
            qstats.max_depth_packets = 1
        qstats.dequeued_packets += 1
        qstats.dequeued_bytes += length
        suppressed[_ENQ] += 1
        suppressed[_DEQ] += 1
        suppressed[_BUF_UND] += 1
        port_obj = hop.port_obj
        # The serializer charges busy time at dequeue (TM _kick).
        port_obj.busy_time_ps += hop.tx_time_ps
        pkt.ts_enqueued_ps = pkt.ts_dequeued_ps = t0 + hop.d_enq
        if stage == _STAGE_DEQUEUED:
            return
        suppressed[_PKT_TX] += 1
        port_obj.tx_packets += 1
        port_obj.tx_bytes += length
        fired[_EGRESS] += 1
        pipeline = hop.egress_pipeline
        pipeline.packets_processed += 1
        entry = hop.egress_entry
        if entry is not None:
            cache_stats.hits += 1
            entry.apply(pkt)
            pipeline.walks_elided += 1
            handled[_EGRESS] += 1
        if stage == _STAGE_SWITCH:
            return
        link = hop.link
        link.tx_packets += 1
        link.delivered_packets += 1

    # ------------------------------------------------------------------
    # Disruption-time materialization
    # ------------------------------------------------------------------
    def disrupt(self) -> None:
        """Cancel every in-flight fused delivery crossing this switch
        and materialize each back into the per-hop machinery.

        The fault entry points (link status flip, impairment attach,
        ``stall``/``unstall``, TM port pause, injector checkpoint) call
        this *before* mutating state, so no fused window ever straddles
        a disruption it could not have seen.  The packet's completed
        hops are applied retroactively (they happened in the virtual
        past, before the disruption); the rest of its journey runs on
        the ordinary code paths at the original per-hop timestamps and
        observes the disruption exactly as the reference run would."""
        active = self._active
        if not active:
            return
        self._active = []
        for flight in active:
            if flight.done:
                continue
            flight.done = True
            flight.event.cancel()
            flight.event = None  # no cycle through the tombstone (see _finish)
            for hop in flight.path.hops:
                fp = hop.fp
                if fp is not self:
                    try:
                        fp._active.remove(flight)
                    except ValueError:
                        pass
            self._materialize(flight)

    def _materialize(self, flight: _Flight) -> None:
        path = flight.path
        pkt = flight.pkt
        t0 = flight.t0
        hops = path.hops
        rel = self.sim.now_ps - t0
        index = 0
        count = len(hops)
        while index < count and rel >= hops[index].d_exit:
            index += 1
        if index == count:
            # Due this very picosecond: deliver in full.
            self._deliver(path, pkt, t0)
            return
        self.stats.materialized += 1
        hop = hops[index]
        for done_hop in hops[:index]:
            self._replay_hop(done_hop, pkt, t0, _STAGE_FULL)
        sim = self.sim
        if rel < hop.d_enq:
            # In the ingress pipeline: re-enter ahead of the TM.  The
            # real _ingress_done path re-runs admission, so a port that
            # the disruption just paused queues the packet exactly as
            # the per-hop reference would.
            sw = hop.switch
            sw.rx_packets += 1
            pkt.ingress_port = hop.rx_port
            sim.call_at(t0 + hop.d_enq, sw._ingress_done, pkt, hop.rx_port)
            return
        if rel < hop.d_enq + hop.tx_time_ps:
            # Mid-serialization: the TM already dequeued; rebuild its
            # in-progress transmit and let _finish_tx take over (egress
            # pipeline, then the ordinary link entry).
            self._replay_hop(hop, pkt, t0, _STAGE_DEQUEUED)
            port_obj = hop.port_obj
            port_obj.busy = True
            sim.call_at(
                t0 + hop.d_enq + hop.tx_time_ps,
                hop.tm._finish_tx,
                port_obj,
                pkt,
                pkt.total_len,
            )
            return
        if rel < hop.d_leave:
            # In the egress pipeline: the switch traversal is complete;
            # re-enter at the link boundary.
            self._replay_hop(hop, pkt, t0, _STAGE_SWITCH)
            sim.call_at(t0 + hop.d_leave, hop.switch._transmit, pkt, hop.egress_spec)
            return
        # On the wire: the link's own delivery re-checks status at the
        # far end, losing the packet if the line went down under it.
        self._replay_hop(hop, pkt, t0, _STAGE_SWITCH)
        link = hop.link
        link.tx_packets += 1
        link.in_flight += 1
        if index + 1 < count:
            receiver, rx_port = hops[index + 1].switch, hops[index + 1].rx_port
        else:
            receiver, rx_port = path.host, path.host_port
        sim.call_at(t0 + hop.d_exit, link._deliver, receiver, pkt, rx_port)

    # ------------------------------------------------------------------
    # Path building (array-backed: the walk runs on flat value lists,
    # never a cloned Packet — cloning would burn packet ids and shift
    # the id sequence against the per-hop reference run)
    # ------------------------------------------------------------------
    def _build(self, pkt, port: int, key: tuple) -> Optional[_PathEntry]:
        # The flat rows are built only once hop 0's entry exists; until
        # then ``key`` (equal to hop 0's flat ingress key) is the probe.
        classes = values = None
        payload = pkt.payload_len
        header_len = pkt.header_len
        sw = self.switch
        rx_port = port
        baseline, link_cls, host_cls = _classes()
        # One row of _Hop.__init__ arguments per switch walked; the hops
        # themselves are built only once the walk reaches a host.
        walked: List[tuple] = []
        clock = 0
        seen = set()
        while True:
            if len(walked) >= _MAX_HOPS or id(sw) in seen:
                return self._negative(key, "loop")
            seen.add(id(sw))
            if type(sw) is not baseline:
                return self._negative(key, "architecture")
            if sw.flow_fastpath is None:
                return self._negative(key, "disabled")
            if sw.bus._observers:
                return None  # transient: observers may detach later
            cache = sw.flow_cache
            if cache is None:
                return self._negative(key, "no-cache")
            program = sw.program
            if program is None:
                return None  # transient: nothing loaded yet
            reason = sw.flow_fastpath._program_verdict(program, sw.description)
            if reason is not None:
                return self._negative(key, reason)
            if classes is None:
                ikey = key
            else:
                ikey = _flow_key_flat(_INGRESS, rx_port, payload, classes, values)
            entry = cache._entries.get(ikey)
            if entry is None:
                return None  # transient: the per-hop run will record it
            if classes is None:
                headers = pkt.headers
                classes = [type(h) for h in headers]
                values = [list(field_getter(c)(h)) for c, h in zip(classes, headers)]
            if entry is UNCACHEABLE:
                return self._negative(key, "uncacheable")
            genvec = cache._generation_vector()
            if entry.genvec != genvec and not cache.revalidate(entry):
                return None  # transient: per-hop lookup will purge it
            spec = entry.egress_spec
            if not isinstance(spec, int) or not 0 <= spec < sw.tm.port_count:
                return self._negative(key, "steer")
            payload = entry.apply_rows(classes, values, payload)
            length = header_len + payload
            port_obj = sw.tm.ports[spec]
            if type(port_obj.scheduler) not in _PURE_SCHEDULERS:
                return self._negative(key, "scheduler")
            queue_id = port_obj.queue_index(entry.queue_id)
            egress_key = egress_entry = None
            if program.handler_for(_EGRESS) is not None:
                egress_key = _flow_key_flat(
                    _EGRESS, (rx_port, spec), payload, classes, values
                )
                egress_entry = cache._entries.get(egress_key)
                if egress_entry is None:
                    return None
                if egress_entry is UNCACHEABLE:
                    return self._negative(key, "uncacheable")
                if egress_entry.genvec != genvec and not cache.revalidate(egress_entry):
                    return None
                if egress_entry.egress_spec != spec:
                    return self._negative(key, "steer")
            network = getattr(sw._tx_callback, "network", None)
            if network is None:
                return self._negative(key, "unwired")
            port_links = network._switch_port_links
            link = port_links.get((sw.name, spec))
            in_link = port_links.get((sw.name, rx_port))
            if link is None or in_link is None:
                return self._negative(key, "unwired")
            if type(link) is not link_cls or type(in_link) is not link_cls:
                return self._negative(key, "boundary")
            if not link.up or link.impairment is not None:
                return None  # transient: guarded live at fuse time
            tx_time = bytes_to_time_ps(length + 20, port_obj.rate_gbps)
            if tx_time > in_link.latency_ps:
                # A same-path follower one in-link behind could catch
                # this hop's transmit window: never fuse such paths.
                return self._negative(key, "short-link")
            fp = sw.flow_fastpath
            nbhd = fp._neighborhood(network)
            if nbhd is None:
                return self._negative(key, "boundary")
            d_enq = clock + sw.ingress_pipeline.latency_ps
            walked.append(
                (
                    sw,
                    rx_port,
                    ikey,
                    entry,
                    egress_key,
                    egress_entry,
                    port_obj,
                    link,
                    queue_id,
                    tx_time,
                    length,
                    d_enq,
                    nbhd,
                    port_links,
                )
            )
            if egress_entry is not None:
                # Egress rewrites land before the next hop sees the bits.
                payload = egress_entry.apply_rows(classes, values, payload)
            clock = d_enq + tx_time + sw.egress_pipeline.latency_ps + link.latency_ps
            if link.node_a is sw:
                receiver, next_port = link.node_b, link.port_b
            else:
                receiver, next_port = link.node_a, link.port_a
            if isinstance(receiver, host_cls):
                hops = tuple(_Hop(*row) for row in walked)
                path = _PathEntry(hops, receiver, next_port, clock)
                self._store(key, path)
                self.stats.paths_built += 1
                return path
            if not isinstance(receiver, baseline):
                return self._negative(key, "architecture")
            sw = receiver
            rx_port = next_port

    def _neighborhood(self, network) -> Optional[tuple]:
        """``(incident_links, neighbor_hosts)`` of this switch, or None
        when one of its ports leads off this network (a boundary link).

        Bound once instead of scanning the whole port map per hop, and
        refreshed only when the network gains a link (``Network`` never
        removes one)."""
        port_links = network._switch_port_links
        cached = self._nbhd
        if cached is not None and cached[0] is network and cached[1] == len(port_links):
            return cached[2]
        _baseline, link_cls, host_cls = _classes()
        name = self.switch.name
        incident: List[Link] = []
        neighbors: List[Host] = []
        nbhd: Optional[tuple] = None
        for (owner, _p), other in port_links.items():
            if owner != name or other in incident:
                continue
            if type(other) is not link_cls:
                break
            incident.append(other)
            for end in (other.node_a, other.node_b):
                if isinstance(end, host_cls) and end not in neighbors:
                    neighbors.append(end)
        else:
            nbhd = (tuple(incident), tuple(neighbors))
        self._nbhd = (network, len(port_links), nbhd)
        return nbhd

    # ------------------------------------------------------------------
    # Negative entries
    # ------------------------------------------------------------------
    def _hop1_sig(self) -> tuple:
        cache = self.switch.flow_cache
        if cache is None:
            return ()
        return (cache.attach_epoch,) + cache._generation_vector()

    def _negative(self, key: tuple, reason: str) -> None:
        self._store(key, _Unfusable(self._hop1_sig(), reason))
        self.stats.fallback(reason)
        return None

    def _store(self, key: tuple, value) -> None:
        paths = self._paths
        if key not in paths and len(paths) >= self.limit:
            paths.pop(next(iter(paths)))
        paths[key] = value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:
        return (
            f"FlowFastpath(entries={len(self._paths)}/{self.limit}, "
            f"fused={self.stats.fused}, fallbacks={self.stats.fallbacks_total})"
        )
