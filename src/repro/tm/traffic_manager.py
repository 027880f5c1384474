"""The traffic manager: admission, queueing, scheduling, transmission.

Responsibilities (paper Figures 1, 2 and 4):

* **Admission**: a packet is admitted if its target queue and the shared
  buffer both have room; otherwise it is dropped and a *buffer overflow*
  event fires.
* **Enqueue**: on admission the TM "extracts some metadata from the
  packet and uses it to fire an enqueue event" — the hook receives the
  user's ``enq_meta`` plus queue-depth information.
* **Dequeue / transmit**: each output port serializes packets at its
  line rate; dequeue fires a *dequeue* event, and the end of
  serialization fires a *packet transmitted* event.
* **Underflow**: when a dequeue leaves a port with no buffered packets,
  a *buffer underflow* event fires (the link is about to go idle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.packet.packet import WIRE_OVERHEAD_BYTES, Packet
from repro.sim.kernel import Simulator
from repro.sim.units import bytes_to_time_ps
from repro.tm.buffer import SharedBuffer
from repro.tm.queues import PacketQueue
from repro.tm.scheduler import FifoScheduler, PifoScheduler, Scheduler


#: A traffic-manager hook, called positionally as
#: ``hook(pkt, port, queue_id, depth_bytes, user_meta)`` at the moment of
#: the transition (``sim.now_ps`` and ``tm.buffer.occupancy_bytes`` are
#: current).  ``depth_bytes`` is the queue's (enqueue, overflow) or the
#: port's (dequeue, transmit) depth after the transition; ``user_meta``
#: is the packet's own ``enq_meta``/``deq_meta`` dict or None — a hook
#: that keeps it must copy it.
Hook = Callable[[Packet, int, int, int, Optional[Dict[str, int]]], None]


@dataclass
class TmEventHooks:
    """Hook points the owning architecture wires to its event threads.

    Each is a :data:`Hook`, called positionally at the transition."""

    on_enqueue: Optional[Hook] = None
    on_dequeue: Optional[Hook] = None
    on_overflow: Optional[Hook] = None
    on_underflow: Optional[Hook] = None
    on_transmit: Optional[Hook] = None


class _Port:
    """One output port: queues, a scheduler, and transmit state.

    ``backlog_packets``/``backlog_bytes`` count what its queues (or its
    PIFO) hold, the packet in service excluded; the TM keeps them."""

    def __init__(
        self,
        index: int,
        queues: List[PacketQueue],
        scheduler: Scheduler,
        rate_gbps: float,
    ) -> None:
        self.index = index
        self.queues = queues
        self.scheduler = scheduler
        self.rate_gbps = rate_gbps
        self.busy = False
        self.enabled = True
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_time_ps = 0
        self.backlog_packets = 0
        self.backlog_bytes = 0
        # The scheduler kind is fixed at construction; deciding it per
        # packet showed up in the TM's per-packet profile.
        self.is_pifo = isinstance(scheduler, PifoScheduler)
        self.last_queue = len(queues) - 1

    def queue_index(self, queue_id: int) -> int:
        """The queue a packet's ``queue_id`` selects: ids outside
        ``[0, last_queue]`` clamp to the nearer end."""
        if queue_id < 0:
            return 0
        return queue_id if queue_id <= self.last_queue else self.last_queue


SchedulerFactory = Callable[[List[PacketQueue]], Scheduler]


class TrafficManager:
    """Queueing and scheduling engine for one switch.

    Packets arrive via :meth:`enqueue` with ``pkt.egress_port`` and
    ``pkt.queue_id`` already chosen by the ingress pipeline; transmitted
    packets are handed to ``egress_callback(pkt, port)``.
    """

    def __init__(
        self,
        sim: Simulator,
        port_count: int,
        queues_per_port: int = 1,
        queue_capacity_bytes: int = 64 * 1024,
        buffer_capacity_bytes: Optional[int] = None,
        port_rate_gbps: float = 10.0,
        scheduler_factory: Optional[SchedulerFactory] = None,
        name: str = "tm",
    ) -> None:
        if port_count <= 0:
            raise ValueError(f"port count must be positive, got {port_count}")
        if queues_per_port <= 0:
            raise ValueError(f"queue count must be positive, got {queues_per_port}")
        self.sim = sim
        self.name = name
        self.queues_per_port = queues_per_port
        if buffer_capacity_bytes is None:
            buffer_capacity_bytes = port_count * queues_per_port * queue_capacity_bytes
        self.buffer = SharedBuffer(buffer_capacity_bytes)
        factory = scheduler_factory or (lambda queues: FifoScheduler(queues))
        self.ports: List[_Port] = []
        for port_index in range(port_count):
            queues = [
                PacketQueue(
                    queue_capacity_bytes, name=f"{name}.p{port_index}q{queue_index}"
                )
                for queue_index in range(queues_per_port)
            ]
            self.ports.append(
                _Port(port_index, queues, factory(queues), port_rate_gbps)
            )
        self.hooks = TmEventHooks()
        self.egress_callback: Optional[Callable[[Packet, int], None]] = None
        #: Wired by the owning switch: pausing a port is a disruption
        #: the flow fastpath must materialize in-flight fusions for.
        self.fastpath_disrupt: Optional[Callable[[], None]] = None
        self.drops_overflow = 0
        self.total_enqueued = 0
        self.total_dequeued = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_egress_callback(self, callback: Callable[[Packet, int], None]) -> None:
        """Where transmitted packets go (the architecture's egress path)."""
        self.egress_callback = callback

    def set_port_rate(self, port: int, rate_gbps: float) -> None:
        """Change a port's line rate."""
        if rate_gbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_gbps}")
        self._port(port).rate_gbps = rate_gbps

    def set_port_enabled(self, port: int, enabled: bool) -> None:
        """Administratively enable or disable a port (link failure)."""
        port_obj = self._port(port)
        disrupt = self.fastpath_disrupt
        if disrupt is not None:
            disrupt()
        port_obj.enabled = enabled
        if enabled:
            self._kick(port_obj)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth_bytes(self, port: int, queue_id: int = 0) -> int:
        """Current depth of one queue in bytes (``queue_id`` clamped as
        at :meth:`enqueue`)."""
        port_obj = self._port(port)
        return port_obj.queues[port_obj.queue_index(queue_id)].depth_bytes

    def port_depth_bytes(self, port: int) -> int:
        """Total buffered bytes destined to ``port``."""
        return self._port(port).backlog_bytes

    def occupancy_bytes(self) -> int:
        """Total shared-buffer occupancy in bytes."""
        return self.buffer.occupancy_bytes

    @property
    def port_count(self) -> int:
        """Number of output ports."""
        return len(self.ports)

    def port_stats(self, port: int) -> Dict[str, int]:
        """Transmit statistics for one port."""
        port_obj = self._port(port)
        return {
            "tx_packets": port_obj.tx_packets,
            "tx_bytes": port_obj.tx_bytes,
            "busy_time_ps": port_obj.busy_time_ps,
        }

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Admit ``pkt`` to its egress port's queue.

        Returns True on admission; on overflow the packet is dropped,
        the overflow hook fires, and False is returned.
        """
        if pkt.egress_port is None:
            raise ValueError(f"packet {pkt.pkt_id} has no egress port set")
        port_obj = self._port(pkt.egress_port)
        queue_id = port_obj.queue_index(pkt.queue_id)
        queue = port_obj.queues[queue_id]

        # The packet's size is read once and handed to every accounting
        # step (queue, shared buffer, backlog) instead of each re-deriving it.
        size = pkt.total_len
        if port_obj.is_pifo:
            return self._enqueue_pifo(pkt, size, port_obj, queue_id)

        buffer = self.buffer
        if not queue.fits(size) or not buffer.fits(size):
            self._drop_overflow(pkt, size, port_obj, queue_id)
            return False
        buffer.admit(size)
        queue.push(pkt, size)
        port_obj.backlog_packets += 1
        port_obj.backlog_bytes += size
        pkt.ts_enqueued_ps = self.sim._get_now()
        self.total_enqueued += 1
        hook = self.hooks.on_enqueue
        if hook is not None:
            hook(
                pkt,
                port_obj.index,
                queue_id,
                queue.depth_bytes,
                pkt.meta.get("enq_meta"),
            )
        if not port_obj.busy:
            self._kick(port_obj)
        return True

    def _enqueue_pifo(
        self, pkt: Packet, size: int, port_obj: _Port, queue_id: int
    ) -> bool:
        buffer = self.buffer
        if not buffer.fits(size):
            self._drop_overflow(pkt, size, port_obj, queue_id)
            return False
        scheduler = port_obj.scheduler
        assert isinstance(scheduler, PifoScheduler)
        buffer.admit(size)
        displaced = scheduler.on_enqueue(pkt)
        if displaced is pkt:
            # Rejected: rank no better than the PIFO tail.
            buffer.release(size)
            self._drop_overflow(pkt, size, port_obj, queue_id)
            return False
        port_obj.backlog_packets += 1
        port_obj.backlog_bytes += size
        if displaced is not None:
            # Pushed out of the tail: it leaves the backlog now and is
            # dropped after the enqueue hook.
            displaced_size = displaced.total_len
            port_obj.backlog_packets -= 1
            port_obj.backlog_bytes -= displaced_size
        pkt.ts_enqueued_ps = self.sim._get_now()
        self.total_enqueued += 1
        hook = self.hooks.on_enqueue
        if hook is not None:
            hook(
                pkt,
                port_obj.index,
                queue_id,
                port_obj.backlog_bytes,
                pkt.meta.get("enq_meta"),
            )
        if displaced is not None:
            buffer.release(displaced_size)
            displaced_queue = port_obj.queue_index(displaced.queue_id)
            self._drop_overflow(displaced, displaced_size, port_obj, displaced_queue)
        if not port_obj.busy:
            self._kick(port_obj)
        return True

    def _drop_overflow(
        self, pkt: Packet, size: int, port_obj: _Port, queue_id: int
    ) -> None:
        """Count an overflow drop against (clamped) queue ``queue_id``."""
        queue = port_obj.queues[queue_id]
        self.drops_overflow += 1
        self.buffer.reject()
        queue.account_drop(size)
        hook = self.hooks.on_overflow
        if hook is not None:
            hook(
                pkt,
                port_obj.index,
                queue_id,
                queue.depth_bytes,
                pkt.meta.get("enq_meta"),
            )

    def _kick(self, port_obj: _Port) -> None:
        """Start transmitting if the port is idle and has work."""
        if port_obj.busy or not port_obj.enabled or not port_obj.backlog_packets:
            return
        entry = port_obj.scheduler.dequeue()
        if entry is None:
            return  # pragma: no cover - DRR's unreachable give-up
        pkt, size = entry
        port_obj.backlog_packets -= 1
        port_obj.backlog_bytes -= size
        self.buffer.release(size)
        pkt.ts_dequeued_ps = self.sim._get_now()
        self.total_dequeued += 1
        queue_id = port_obj.queue_index(pkt.queue_id)
        hooks = self.hooks
        hook = hooks.on_dequeue
        if hook is not None:
            hook(
                pkt,
                port_obj.index,
                queue_id,
                port_obj.backlog_bytes,
                pkt.meta.get("deq_meta"),
            )
        if not port_obj.backlog_packets:
            hook = hooks.on_underflow
            if hook is not None:
                hook(pkt, port_obj.index, queue_id, 0, None)
        port_obj.busy = True
        tx_time = bytes_to_time_ps(size + WIRE_OVERHEAD_BYTES, port_obj.rate_gbps)
        port_obj.busy_time_ps += tx_time
        self.sim.call_after(tx_time, self._finish_tx, port_obj, pkt, size)

    def _finish_tx(self, port_obj: _Port, pkt: Packet, size: int) -> None:
        port_obj.busy = False
        port_obj.tx_packets += 1
        port_obj.tx_bytes += size
        hook = self.hooks.on_transmit
        if hook is not None:
            queue_id = port_obj.queue_index(pkt.queue_id)
            hook(pkt, port_obj.index, queue_id, port_obj.backlog_bytes, None)
        if self.egress_callback is not None:
            self.egress_callback(pkt, port_obj.index)
        if port_obj.backlog_packets:
            self._kick(port_obj)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _port(self, port: int) -> _Port:
        if not 0 <= port < len(self.ports):
            raise IndexError(
                f"TM {self.name!r} port {port} out of range [0, {len(self.ports)})"
            )
        return self.ports[port]

    def __repr__(self) -> str:
        return (
            f"TrafficManager({self.name!r}, ports={len(self.ports)}, "
            f"occupancy={self.buffer.occupancy_bytes}B)"
        )
