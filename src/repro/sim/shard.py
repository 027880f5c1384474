"""Conservative-parallel sharded simulation.

One :class:`~repro.sim.kernel.Simulator` per shard, synchronized in
bounded windows by a coordinator:

* :func:`~repro.net.partition.partition_spec` splits the fabric into
  shard node sets with explicit boundary links;
* each shard realizes only its nodes and wires a :class:`BoundaryLink`
  proxy per cut link — outbound packets land in an outbox instead of a
  local delivery, inbound packets are injected as future events;
* the :class:`ShardedSimulator` coordinator runs windows
  ``[W0, W0 + lookahead)`` where ``lookahead`` is the minimum boundary
  link latency.  A packet sent at ``t >= W0`` arrives at
  ``t + latency >= W0 + lookahead``, i.e. never inside the window that
  produced it — the classic conservative (CMB-style) safety argument —
  so shards execute windows independently and exchange outboxes at
  barriers.  Between windows the coordinator jumps straight to the
  earliest pending event, so idle gaps cost one round, not many.

The coordinator is a router that never touches a packet: a shard hands
back its outbox as one :data:`BoundaryMsg` per boundary link — the link
name, the deliver times, and the packets as one opaque payload (the list
itself inline, one ``pickle`` blob from a worker process) — and the
coordinator forwards each payload to the far shard with the ordered
:data:`Injection` entries that index into it.  The receiving shard
decodes each payload once.

Determinism: boundary injections are sorted by the portable
``(deliver_time, link name, per-link sequence)`` triple before being
handed to a shard, so every run — inline or multi-process, any worker
interleaving — schedules the same events in the same order.
Equivalence with the serial run is checked via
:func:`behavior_fingerprint`, an order-insensitive per-host digest of
arrival ``(time, length)`` multisets; see ``docs/SCALING.md`` for the
exact guarantee and its conditions.

Workers are persistent processes
(:class:`~repro.experiments.parallel.PersistentWorker`) rebuilding
their shard from pure data (a picklable ``builder`` callable plus
args); ``mode="inline"`` runs every shard in-process for tests and
debugging with identical semantics.  Workers are all started before
any build is awaited, so shard builds overlap.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.network import Network
from repro.net.partition import Partition
from repro.obs.shard import ShardCounters, ShardStats
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator

#: host name → [(arrival time ps, payload length)] — what workers return.
HostRecords = Dict[str, List[Tuple[int, int]]]

#: Wire format of one boundary link's traffic from one window, shard →
#: coordinator → far shard: ``(link name, [deliver time ps], payload)``.
#: The payload holds the link's packets, index-aligned with the times: the
#: list itself in inline mode, one ``pickle`` blob of it in process mode.
#: The coordinator reads the name and the times, never the payload.
BoundaryMsg = Tuple[str, List[int], Any]

#: One ordered injection the coordinator hands a shard:
#: ``(link name, deliver time ps, payload id, index in that payload)``,
#: where the payload id indexes the window's payload list for that shard.
Injection = Tuple[str, int, int, int]


class _RemoteStub:
    """The off-shard end of a boundary link; never actually receives."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, pkt: Packet, port: int) -> None:  # pragma: no cover
        raise RuntimeError(
            f"remote stub {self.name!r} cannot receive; boundary delivery "
            "must go through the coordinator"
        )

    def set_link_status(self, port: int, up: bool) -> None:
        pass


class BoundaryLink(Link):
    """A shard's local half of a link whose far end is on another shard.

    Outbound: :meth:`transmit_from` stamps the delivery time
    (``now + latency``) and parks the time and the packet in
    :attr:`sent_times` / :attr:`sent_packets` for the coordinator instead
    of scheduling a local delivery.  Inbound: the coordinator's
    injections call :meth:`inject`, which schedules the stock
    :meth:`Link._deliver` at the stamped time — same callback, same
    priority as a serial-run link, so the local simulator cannot tell
    the difference.  Impairments are not supported on boundary links.
    """

    def __init__(
        self,
        sim: Simulator,
        local_node,
        local_port: int,
        remote_name: str,
        remote_port: int,
        latency_ps: int = 1_000_000,
        name: str = "boundary",
    ) -> None:
        if latency_ps <= 0:
            raise ValueError(
                f"boundary link {name!r} needs positive latency for "
                f"lookahead, got {latency_ps}"
            )
        super().__init__(
            sim,
            local_node,
            local_port,
            _RemoteStub(remote_name),
            remote_port,
            latency_ps,
            name,
        )
        #: deliver times (ps) and packets awaiting pickup, index-aligned.
        self.sent_times: List[int] = []
        self.sent_packets: List[Packet] = []
        self.injected_packets = 0

    def transmit_from(self, sender, pkt: Packet) -> None:
        if sender is not self.node_a:
            raise ValueError(
                f"{sender!r} is not the local end of boundary {self.name!r}"
            )
        self.tx_packets += 1
        if not self.up:
            self.lost_packets += 1
            return
        # Handed off to the coordinator: ledger-wise the packet has left
        # this shard, so it counts as delivered here.
        self.delivered_packets += 1
        self.sent_times.append(self.sim.now_ps + self.latency_ps)
        self.sent_packets.append(pkt)

    def inject(self, pkt: Packet, deliver_time_ps: int) -> None:
        """Schedule an inbound boundary packet for local delivery."""
        self.injected_packets += 1
        self.tx_packets += 1
        self.in_flight += 1
        self.sim.call_at(
            deliver_time_ps, self._deliver, self.node_a, pkt, self.port_a
        )


def wire_boundary_links(
    network: Network, partition: Partition, shard_id: int
) -> Dict[str, BoundaryLink]:
    """Create and attach a :class:`BoundaryLink` per cut link of a shard.

    ``network`` must be the shard-local realization (built with
    ``realize(spec, ..., only_nodes=partition.shard_nodes(shard_id))``,
    which skips cut links).  Returns {link name → proxy} for the
    worker's outbox/inject plumbing.
    """
    boundaries: Dict[str, BoundaryLink] = {}
    for link in partition.boundary_links(shard_id):
        if partition.assignment[link.node_a] == shard_id:
            local_name, local_port = link.node_a, link.port_a
            remote_name, remote_port = link.node_b, link.port_b
        else:
            local_name, local_port = link.node_b, link.port_b
            remote_name, remote_port = link.node_a, link.port_a
        node = network.switches.get(local_name) or network.hosts.get(local_name)
        if node is None:
            raise ValueError(
                f"boundary link {link.name!r}: local node {local_name!r} "
                f"was not realized in shard {shard_id}"
            )
        proxy = BoundaryLink(
            network.sim,
            node,
            local_port,
            remote_name,
            remote_port,
            link.latency_ps,
            name=link.name,
        )
        network.attach_boundary(node, local_port, proxy)
        boundaries[link.name] = proxy
    return boundaries


# ---------------------------------------------------------------------------
# Behavior fingerprint
# ---------------------------------------------------------------------------


class ArrivalRecorder:
    """A host sink recording ``(arrival time ps, payload length)`` pairs."""

    __slots__ = ("sim", "arrivals")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.arrivals: List[Tuple[int, int]] = []

    def __call__(self, pkt: Packet) -> None:
        self.arrivals.append((self.sim.now_ps, pkt.total_len))


def attach_recorders(network: Network) -> Dict[str, ArrivalRecorder]:
    """One :class:`ArrivalRecorder` sink per host of a network."""
    recorders = {}
    for name, host in network.hosts.items():
        recorder = ArrivalRecorder(network.sim)
        host.add_sink(recorder)
        recorders[name] = recorder
    return recorders


def behavior_fingerprint(records: HostRecords) -> Dict[str, Tuple[int, int, str]]:
    """Order-insensitive per-host digest of what a run delivered.

    Maps host name → ``(packets, bytes, sha256 hexdigest)`` where the
    digest covers the **sorted** multiset of ``(arrival time, length)``
    pairs.  Two runs that deliver the same packets at the same times —
    in any order — fingerprint identically; a single shifted arrival,
    missing packet, or changed length does not.
    """
    out: Dict[str, Tuple[int, int, str]] = {}
    for host in sorted(records):
        arrivals = sorted(records[host])
        digest = hashlib.sha256()
        for time_ps, length in arrivals:
            digest.update(b"%d:%d\n" % (time_ps, length))
        out[host] = (
            len(arrivals),
            sum(length for _, length in arrivals),
            digest.hexdigest(),
        )
    return out


def fingerprint_digest(fingerprint: Dict[str, Tuple[int, int, str]]) -> str:
    """Collapse a per-host fingerprint into one printable sha256."""
    digest = hashlib.sha256()
    for host in sorted(fingerprint):
        packets, nbytes, host_digest = fingerprint[host]
        digest.update(f"{host}|{packets}|{nbytes}|{host_digest}\n".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Shard runtime + window execution (shared by inline and process modes)
# ---------------------------------------------------------------------------


@dataclass
class ShardRuntime:
    """What a shard builder returns: one shard, ready to run windows."""

    sim: Simulator
    network: Network
    boundaries: Dict[str, BoundaryLink]
    recorders: Dict[str, ArrivalRecorder]

    def collect(self) -> HostRecords:
        return {
            name: list(recorder.arrivals)
            for name, recorder in self.recorders.items()
        }


#: Builder contract: ``builder(shard_id, *builder_args) -> ShardRuntime``.
#: Must be module-level (picklable) for ``mode="process"``.
ShardBuilder = Callable[..., ShardRuntime]


def _same(packets: List[Packet]) -> List[Packet]:
    return packets


#: (encode, decode) of a payload: inline shards share the packet lists;
#: process workers ship each list as one pickle blob (see
#: :func:`_shard_worker_main`).
_Codec = Tuple[Callable[[List[Packet]], Any], Callable[[Any], List[Packet]]]
_INLINE_CODEC: _Codec = (_same, _same)


def _run_window(
    runtime: ShardRuntime,
    counters: ShardCounters,
    codec: _Codec,
    w_end: Optional[int],
    inbound: List[Injection],
    payloads: List[Any],
) -> Tuple[List[BoundaryMsg], Optional[int], int]:
    """Inject ``inbound``, run one window, return (outbox, next time, executed).

    ``inbound`` is already in injection order; each entry names its
    packet by payload id and index, and each payload is decoded once.
    The outbox holds one :data:`BoundaryMsg` per boundary link that sent
    anything, in link-name order.  ``w_end=None`` runs the shard to
    quiescence — the no-boundary / single-shard fast path.  Time spent
    in the codec counts as ``serialize_s``, the rest as ``wall_s``.
    """
    encode, decode = codec
    started = time.perf_counter()
    packets = [decode(payload) for payload in payloads]
    decoded = time.perf_counter()
    boundaries = runtime.boundaries
    for link_name, deliver_time, payload_id, index in inbound:
        boundaries[link_name].inject(packets[payload_id][index], deliver_time)
    counters.boundary_rx += len(inbound)
    if w_end is None:
        executed = runtime.sim.run()
    else:
        executed = runtime.sim.run_until(w_end)
    ran = time.perf_counter()
    outbox: List[BoundaryMsg] = []
    for name in sorted(boundaries):
        boundary = boundaries[name]
        if boundary.sent_times:
            counters.boundary_tx += len(boundary.sent_times)
            outbox.append(
                (name, boundary.sent_times, encode(boundary.sent_packets))
            )
            # Fresh lists: an inline payload is the old list itself.
            boundary.sent_times = []
            boundary.sent_packets = []
    counters.sync_rounds += 1
    counters.events_executed += executed
    if executed == 0:
        counters.stall_windows += 1
    counters.wall_s += ran - decoded
    counters.serialize_s += decoded - started + time.perf_counter() - ran
    return outbox, runtime.sim.next_event_time_ps, executed


def _shard_worker_main(conn, builder: ShardBuilder, shard_id: int, builder_args) -> None:
    """Entry point of one persistent shard worker process."""
    # Imported here, where the pipe has loaded it already, so that
    # in-process runs do not pay the module's memory.
    import pickle

    codec: _Codec = (
        lambda packets: pickle.dumps(packets, pickle.HIGHEST_PROTOCOL),
        pickle.loads,
    )
    try:
        runtime = builder(shard_id, *builder_args)
        counters = ShardCounters(
            shard_id=shard_id,
            switches=len(runtime.network.switches),
            hosts=len(runtime.network.hosts),
        )
        conn.send(("ready", runtime.sim.next_event_time_ps))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "window":
                _, w_end, inbound, payloads = message
                conn.send(("ok",) + _run_window(
                    runtime, counters, codec, w_end, inbound, payloads
                ))
            elif kind == "finish":
                conn.send(("result", runtime.collect(), counters))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {kind!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


class _InlineShard:
    """In-process stand-in for a worker: same protocol, no pipe."""

    def __init__(self, builder: ShardBuilder, shard_id: int, builder_args) -> None:
        self.runtime = builder(shard_id, *builder_args)
        self.counters = ShardCounters(
            shard_id=shard_id,
            switches=len(self.runtime.network.switches),
            hosts=len(self.runtime.network.hosts),
        )
        self.next_time = self.runtime.sim.next_event_time_ps

    def wait_ready(self) -> None:
        pass

    def start_window(
        self, w_end: Optional[int], inbound: List[Injection], payloads: List[Any]
    ) -> None:
        self._reply = _run_window(
            self.runtime, self.counters, _INLINE_CODEC, w_end, inbound, payloads
        )

    def finish_window(self) -> List[BoundaryMsg]:
        outbox, self.next_time, _executed = self._reply
        return outbox

    def result(self) -> Tuple[HostRecords, ShardCounters]:
        return self.runtime.collect(), self.counters

    def stop(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessShard:
    """A shard behind a :class:`PersistentWorker` pipe.

    Construction only starts the worker; :meth:`wait_ready` blocks until
    its build is done, so the coordinator can start every worker first.
    """

    def __init__(self, builder: ShardBuilder, shard_id: int, builder_args) -> None:
        # Imported lazily so inline mode works without multiprocessing.
        from repro.experiments.parallel import PersistentWorker

        self.worker = PersistentWorker(
            _shard_worker_main, builder, shard_id, builder_args
        )

    def wait_ready(self) -> None:
        kind, self.next_time = self.worker.recv()
        assert kind == "ready"

    def start_window(
        self, w_end: Optional[int], inbound: List[Injection], payloads: List[Any]
    ) -> None:
        self.worker.send(("window", w_end, inbound, payloads))

    def finish_window(self) -> List[BoundaryMsg]:
        _kind, outbox, self.next_time, _executed = self.worker.recv()
        return outbox

    def result(self) -> Tuple[HostRecords, ShardCounters]:
        self.worker.send(("finish",))
        _kind, records, counters = self.worker.recv()
        return records, counters

    def stop(self) -> None:
        """Ask the worker to exit without waiting for it."""
        from repro.experiments.parallel import WorkerCrashed

        try:
            self.worker.send(("stop",))
        except WorkerCrashed:  # already gone
            pass

    def close(self) -> None:
        self.worker.close()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class ShardRunResult:
    """Everything a sharded run produced."""

    records: HostRecords
    fingerprint: Dict[str, Tuple[int, int, str]]
    stats: ShardStats
    wall_s: float

    @property
    def digest(self) -> str:
        return fingerprint_digest(self.fingerprint)

    def total_received(self) -> int:
        return sum(packets for packets, _, _ in self.fingerprint.values())


class ShardedSimulator:
    """Coordinator for N shard simulators synchronized by lookahead.

    ``builder(shard_id, *builder_args)`` must return a fully scheduled
    :class:`ShardRuntime` for that shard; in ``mode="process"`` it runs
    inside a worker process, so it (and its args) must be picklable.
    ``mode="inline"`` executes every shard in this process — identical
    windows, identical results, no parallelism — which is the mode
    tests and single-core hosts want.
    """

    def __init__(
        self,
        partition: Partition,
        builder: ShardBuilder,
        builder_args: Tuple[Any, ...] = (),
        mode: str = "process",
        max_windows: Optional[int] = None,
    ) -> None:
        if mode not in ("inline", "process"):
            raise ValueError(f"mode must be 'inline' or 'process', got {mode!r}")
        self.partition = partition
        self.builder = builder
        self.builder_args = builder_args
        self.mode = mode
        self.max_windows = max_windows
        self.lookahead_ps = partition.lookahead_ps()
        if partition.edge_cut() and not self.lookahead_ps:
            raise ValueError(
                "conservative sync needs positive lookahead; a boundary "
                "link has zero latency — repartition or increase latencies"
            )
        # link name -> shard id of each endpoint, for outbox routing.
        self._link_shards: Dict[str, Tuple[int, int]] = {
            link.name: (
                partition.assignment[link.node_a],
                partition.assignment[link.node_b],
            )
            for link in partition.cut_links()
        }

    def run(self) -> ShardRunResult:
        started = time.perf_counter()
        shard_cls = _InlineShard if self.mode == "inline" else _ProcessShard
        shards = []
        try:
            for shard_id in range(self.partition.shards):
                shards.append(shard_cls(self.builder, shard_id, self.builder_args))
            # Every worker is building by now: the builds overlap.
            for shard in shards:
                shard.wait_ready()
            stats = self._window_loop(shards)
            records: HostRecords = {}
            for shard in shards:
                shard_records, counters = shard.result()
                overlap = set(records) & set(shard_records)
                if overlap:  # pragma: no cover - partition invariant
                    raise RuntimeError(f"hosts in two shards: {sorted(overlap)}")
                records.update(shard_records)
                stats.shards.append(counters)
        finally:
            # Stop every worker before joining any, so that a failed
            # build or window leaves no worker behind and none waits on
            # another's join.
            for shard in shards:
                shard.stop()
            for shard in shards:
                shard.close()
        return ShardRunResult(
            records=records,
            fingerprint=behavior_fingerprint(records),
            stats=stats,
            wall_s=time.perf_counter() - started,
        )

    def _window_loop(self, shards) -> ShardStats:
        stats = ShardStats(lookahead_ps=self.lookahead_ps or 0)
        if self.lookahead_ps is None:
            # No cut links: shards are independent components; one
            # unbounded window each finishes the whole run.
            for shard in shards:
                shard.start_window(None, [], [])
            for shard in shards:
                shard.finish_window()
            stats.windows = 1
            return stats
        # Per-shard inbox of (deliver_time, link name, arrival seq,
        # payload id, index) and the payloads those ids index; the seq
        # keeps the sort total and FIFO per link.
        pending: List[List[Tuple[int, str, int, int, int]]] = [
            [] for _ in shards
        ]
        payloads: List[List[Any]] = [[] for _ in shards]
        arrival_seq = 0
        while True:
            horizons = [
                shard.next_time for shard in shards
                if shard.next_time is not None
            ]
            horizons.extend(
                entry[0] for inbox in pending for entry in inbox
            )
            if not horizons:
                return stats
            if self.max_windows is not None and stats.windows >= self.max_windows:
                raise RuntimeError(
                    f"sharded run exceeded max_windows={self.max_windows}"
                )
            w_end = min(horizons) + self.lookahead_ps
            for shard, inbox, blobs in zip(shards, pending, payloads):
                inbox.sort()
                shard.start_window(
                    w_end,
                    [(name, t, pid, index) for t, name, _seq, pid, index in inbox],
                    blobs,
                )
                inbox.clear()
                blobs.clear()
            outboxes = [shard.finish_window() for shard in shards]
            stats.windows += 1
            for shard_id, outbox in enumerate(outboxes):
                for link_name, times, payload in outbox:
                    end_a, end_b = self._link_shards[link_name]
                    target = end_b if end_a == shard_id else end_a
                    payload_id = len(payloads[target])
                    payloads[target].append(payload)
                    for index, deliver_time in enumerate(times):
                        pending[target].append(
                            (deliver_time, link_name, arrival_seq, payload_id, index)
                        )
                        arrival_seq += 1
