"""The simulated packet.

A :class:`Packet` is an ordered stack of parsed headers plus an opaque
payload length, along with the mutable per-packet metadata that flows
through the PISA pipelines (ingress port, egress spec, queue id, drop
flag, and the user-defined enqueue/dequeue metadata of the paper's
programming model).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.packet.headers import Header, Ipv4, Tcp, Udp

_packet_ids = itertools.count()

#: Per-frame wire overhead beyond :attr:`Packet.total_len`: preamble,
#: start delimiter and inter-frame gap.
WIRE_OVERHEAD_BYTES = 20


@dataclass(frozen=True)
class FiveTuple:
    """The classic flow five-tuple used for flow hashing."""

    src_ip: int
    dst_ip: int
    proto: int
    sport: int
    dport: int

    def as_bytes(self) -> bytes:
        """Canonical byte encoding for hashing."""
        return (
            self.src_ip.to_bytes(4, "big")
            + self.dst_ip.to_bytes(4, "big")
            + self.proto.to_bytes(1, "big")
            + self.sport.to_bytes(2, "big")
            + self.dport.to_bytes(2, "big")
        )


class Packet:
    """A packet moving through the simulated network.

    ``headers`` is ordered outermost-first.  ``payload_len`` counts bytes
    beyond the declared headers; :attr:`total_len` is what the wire and
    the buffer accounting see.  ``meta`` is a free-form dict for
    program-defined metadata (mirroring P4 user metadata).
    """

    __slots__ = (
        "pkt_id",
        "headers",
        "_hdr_len",
        "_hdr_count",
        "payload_len",
        "meta",
        "ingress_port",
        "egress_port",
        "queue_id",
        "priority",
        "ts_created_ps",
        "ts_enqueued_ps",
        "ts_dequeued_ps",
        "recirculated",
        "generated",
        "trace",
    )

    def __init__(
        self,
        headers: Optional[List[Header]] = None,
        payload_len: int = 0,
        ingress_port: int = 0,
        ts_created_ps: int = 0,
    ) -> None:
        if payload_len < 0:
            raise ValueError(f"payload length must be non-negative, got {payload_len}")
        self.pkt_id: int = next(_packet_ids)
        self.headers: List[Header] = list(headers or [])
        self._hdr_len: int = -1
        self._hdr_count: int = -1
        self.payload_len = payload_len
        self.meta: Dict[str, int] = {}
        self.ingress_port = ingress_port
        self.egress_port: Optional[int] = None
        self.queue_id: int = 0
        self.priority: int = 0
        self.ts_created_ps = ts_created_ps
        self.ts_enqueued_ps: Optional[int] = None
        self.ts_dequeued_ps: Optional[int] = None
        self.recirculated: bool = False
        self.generated: bool = False
        self.trace: List[str] = []

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        """Total bytes of declared headers.

        Cached per packet; the cache keys on the header-stack length, so
        any length-changing mutation (push/pop, direct list edits)
        invalidates it.  Replacing a header in place with one of a
        *different type* must go through :meth:`pop`/:meth:`push`.
        """
        headers = self.headers
        if len(headers) != self._hdr_count:
            self._hdr_len = sum(h.width_bytes() for h in headers)
            self._hdr_count = len(headers)
        return self._hdr_len

    @property
    def total_len(self) -> int:
        """Total packet length in bytes (headers + payload)."""
        # header_len's cache check is inlined: total_len is the hottest
        # accessor on the packet (queue accounting, serialization, TM
        # events all read it) and the nested property call showed up.
        headers = self.headers
        if len(headers) != self._hdr_count:
            self._hdr_len = sum(h.width_bytes() for h in headers)
            self._hdr_count = len(headers)
        return self._hdr_len + self.payload_len

    @property
    def wire_len(self) -> int:
        """Bytes occupied on the wire, including preamble + IFG (20B)."""
        return self.total_len + WIRE_OVERHEAD_BYTES

    # ------------------------------------------------------------------
    # Header access
    # ------------------------------------------------------------------
    def get(self, header_type: Type[Header]) -> Optional[Header]:
        """The first header of ``header_type``, or None."""
        for header in self.headers:
            if type(header) is header_type:
                return header
        return None

    def require(self, header_type: Type[Header]) -> Header:
        """The first header of ``header_type``; raises KeyError if absent."""
        header = self.get(header_type)
        if header is None:
            raise KeyError(f"packet {self.pkt_id} has no {header_type.__name__}")
        return header

    def has(self, header_type: Type[Header]) -> bool:
        """True if a header of ``header_type`` is present."""
        return self.get(header_type) is not None

    def push(self, header: Header) -> None:
        """Prepend a header (outermost position)."""
        self._hdr_count = -1
        self.headers.insert(0, header)

    def pop(self, header_type: Type[Header]) -> Header:
        """Remove and return the first header of ``header_type``."""
        for i, header in enumerate(self.headers):
            if type(header) is header_type:
                self._hdr_count = -1
                return self.headers.pop(i)
        raise KeyError(f"packet {self.pkt_id} has no {header_type.__name__}")

    # ------------------------------------------------------------------
    # Flow identity
    # ------------------------------------------------------------------
    def five_tuple(self) -> Optional[FiveTuple]:
        """This packet's flow five-tuple, or None for non-IP packets."""
        ip = self.get(Ipv4)
        if ip is None:
            return None
        sport = dport = 0
        l4 = self.get(Tcp) or self.get(Udp)
        if l4 is not None:
            sport = l4.sport
            dport = l4.dport
        return FiveTuple(ip.src, ip.dst, ip.protocol, sport, dport)

    def clone(self) -> "Packet":
        """Deep copy with a fresh packet id (for multicast/recirculation)."""
        dup = Packet(
            headers=[h.copy() for h in self.headers],
            payload_len=self.payload_len,
            ingress_port=self.ingress_port,
            ts_created_ps=self.ts_created_ps,
        )
        dup.meta = dict(self.meta)
        dup.egress_port = self.egress_port
        dup.queue_id = self.queue_id
        dup.priority = self.priority
        dup.recirculated = self.recirculated
        dup.generated = self.generated
        return dup

    # ------------------------------------------------------------------
    # Pickling (explicit: slotted instances have no __dict__, and the
    # checkpoint/shard-pipe payloads should not depend on slot order)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    def note(self, message: str) -> None:
        """Append a trace note (used by tests and debugging)."""
        self.trace.append(message)

    def __repr__(self) -> str:
        names = "/".join(type(h).__name__ for h in self.headers) or "raw"
        return (
            f"Packet(#{self.pkt_id}, {names}, len={self.total_len}B, "
            f"in={self.ingress_port}, out={self.egress_port})"
        )
