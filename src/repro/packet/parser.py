"""Programmable parser and deparser.

A PISA parser is a finite state machine: each state extracts one header
and selects the next state from one of the extracted fields.  We model
exactly that: a :class:`Parser` is a set of named :class:`ParserState`
nodes; each state names the header type it extracts, the field it
selects on, and a transition map.  The default parsers for the standard
Ethernet/IPv4/TCP-UDP stack (plus the reproduction's probe headers) are
built by :func:`standard_parser`.

The :class:`Deparser` re-serializes a packet's header stack to bytes in
order, so round-tripping bytes → packet → bytes is exact — tests rely
on this property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.packet.headers import (
    Ethernet,
    EtherType,
    Header,
    HulaProbe,
    IntReport,
    IpProto,
    Ipv4,
    KeyValue,
    LivenessEcho,
    Tcp,
    Udp,
)
from repro.packet.packet import Packet


class ParseError(ValueError):
    """Raised when input bytes cannot be parsed by the parse graph."""


class DeparseError(ValueError):
    """Raised when a header stack cannot be serialized."""


#: Transition key meaning "any value not otherwise matched".
DEFAULT = "default"
#: Next-state name meaning "stop parsing; remaining bytes are payload".
ACCEPT = "accept"
#: Next-state name meaning "reject the packet".
REJECT = "reject"


@dataclass
class ParserState:
    """One state of the parse graph.

    ``extracts`` is the header type pulled off the wire on entry.
    ``select_field`` names the field of the just-extracted header used
    to pick the next state via ``transitions``; if None, the transition
    map must contain only a DEFAULT entry.
    """

    name: str
    extracts: Type[Header]
    select_field: Optional[str] = None
    transitions: Dict[object, str] = field(default_factory=dict)

    def next_state(self, header: Header) -> str:
        """Resolve the next state name after extracting ``header``."""
        if self.select_field is None:
            return self.transitions.get(DEFAULT, ACCEPT)
        value = getattr(header, self.select_field)
        if value in self.transitions:
            return self.transitions[value]
        return self.transitions.get(DEFAULT, REJECT)


class Parser:
    """A programmable parser: a named parse graph.

    The parser consumes bytes and produces a :class:`Packet` whose
    header stack mirrors the traversed states.  States, like P4 parser
    states, are applied in graph order starting from ``start``.
    """

    def __init__(self, states: List[ParserState], start: str = "start") -> None:
        self.states: Dict[str, ParserState] = {}
        for state in states:
            if state.name in self.states:
                raise ValueError(f"duplicate parser state {state.name!r}")
            self.states[state.name] = state
        if start not in self.states:
            raise ValueError(f"start state {start!r} not defined")
        self.start = start
        self._validate()

    def _validate(self) -> None:
        for state in self.states.values():
            for target in state.transitions.values():
                if target not in (ACCEPT, REJECT) and target not in self.states:
                    raise ValueError(
                        f"state {state.name!r} transitions to unknown "
                        f"state {target!r}"
                    )

    def parse(self, data: bytes, ingress_port: int = 0, ts_ps: int = 0) -> Packet:
        """Parse ``data`` into a packet; leftover bytes become payload.

        ``data`` may be any bytes-like object (``bytes``, ``bytearray``
        or ``memoryview``).
        """
        headers: List[Header] = []
        offset = 0
        state_name = self.start
        visited = 0
        while state_name not in (ACCEPT, REJECT):
            visited += 1
            if visited > len(self.states) + 1:
                raise ParseError("parse graph cycle detected")
            state = self.states[state_name]
            width = state.extracts.width_bytes()
            if offset + width > len(data):
                raise ParseError(
                    f"state {state.name!r} needs {width} bytes at offset "
                    f"{offset}, packet is {len(data)} bytes"
                )
            header = state.extracts.unpack(data[offset:])
            offset += width
            headers.append(header)
            state_name = state.next_state(header)
        if state_name == REJECT:
            raise ParseError(f"packet rejected by parse graph after {headers}")
        return Packet(
            headers=headers,
            payload_len=len(data) - offset,
            ingress_port=ingress_port,
            ts_created_ps=ts_ps,
        )

    @property
    def state_count(self) -> int:
        """Number of parse states (used by the resource model)."""
        return len(self.states)


class Deparser:
    """Serializes a packet's header stack back to wire bytes.

    The payload is emitted as zero bytes of the recorded length — the
    simulation never inspects payload contents, only sizes.
    """

    def deparse(self, pkt: Packet) -> bytes:
        try:
            header_bytes = b"".join(h.pack() for h in pkt.headers)
        except ValueError as exc:
            raise DeparseError(str(exc)) from exc
        return header_bytes + bytes(pkt.payload_len)


def standard_parser() -> Parser:
    """The reproduction's default parse graph.

    Ethernet → {IPv4 → {TCP, UDP}, HULA probe, liveness echo, INT
    report}; UDP port 9900 carries NetCache key-value headers.
    """
    return Parser(
        [
            ParserState(
                "start",
                extracts=Ethernet,
                select_field="ethertype",
                transitions={
                    int(EtherType.IPV4): "ipv4",
                    int(EtherType.HULA): "hula",
                    int(EtherType.LIVENESS): "liveness",
                    int(EtherType.INT_REPORT): "int_report",
                    DEFAULT: ACCEPT,
                },
            ),
            ParserState(
                "ipv4",
                extracts=Ipv4,
                select_field="protocol",
                transitions={
                    int(IpProto.TCP): "tcp",
                    int(IpProto.UDP): "udp",
                    DEFAULT: ACCEPT,
                },
            ),
            ParserState("tcp", extracts=Tcp, transitions={DEFAULT: ACCEPT}),
            ParserState(
                "udp",
                extracts=Udp,
                select_field="dport",
                transitions={9900: "kv", DEFAULT: ACCEPT},
            ),
            ParserState("kv", extracts=KeyValue, transitions={DEFAULT: ACCEPT}),
            ParserState("hula", extracts=HulaProbe, transitions={DEFAULT: ACCEPT}),
            ParserState(
                "liveness", extracts=LivenessEcho, transitions={DEFAULT: ACCEPT}
            ),
            ParserState(
                "int_report", extracts=IntReport, transitions={DEFAULT: ACCEPT}
            ),
        ]
    )
