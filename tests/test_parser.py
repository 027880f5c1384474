"""Unit and property tests for the programmable parser/deparser."""

import pytest
from hypothesis import given, strategies as st

from repro.packet.builder import (
    make_hula_probe,
    make_kv_request,
    make_liveness_echo,
    make_tcp_packet,
    make_udp_packet,
)
from repro.packet.headers import (
    Ethernet,
    EtherType,
    HulaProbe,
    Ipv4,
    KeyValue,
    LivenessEcho,
    Tcp,
    Udp,
)
from repro.packet.parser import (
    ACCEPT,
    DEFAULT,
    Deparser,
    ParseError,
    Parser,
    ParserState,
    standard_parser,
)

PARSER = standard_parser()
DEPARSER = Deparser()


def roundtrip(pkt):
    return PARSER.parse(DEPARSER.deparse(pkt))


def test_parses_tcp_stack():
    pkt = roundtrip(make_tcp_packet(0x0A000001, 0x0A000002, payload_len=37))
    assert [type(h) for h in pkt.headers] == [Ethernet, Ipv4, Tcp]
    assert pkt.payload_len == 37


def test_parses_udp_stack():
    pkt = roundtrip(make_udp_packet(1, 2, dport=53, payload_len=5))
    assert [type(h) for h in pkt.headers] == [Ethernet, Ipv4, Udp]


def test_udp_port_9900_carries_kv():
    pkt = roundtrip(make_kv_request(op=0, key=42))
    assert [type(h) for h in pkt.headers] == [Ethernet, Ipv4, Udp, KeyValue]
    assert pkt.require(KeyValue).key == 42


def test_parses_hula_probe():
    pkt = roundtrip(make_hula_probe(tor_id=3, path_id=1, max_util_centi=77))
    probe = pkt.require(HulaProbe)
    assert (probe.tor_id, probe.path_id, probe.max_util_centi) == (3, 1, 77)


def test_parses_liveness_echo():
    pkt = roundtrip(make_liveness_echo(kind=1, origin=2, target=3, nonce=9))
    echo = pkt.require(LivenessEcho)
    assert echo.kind == 1 and echo.nonce == 9


def test_unknown_ethertype_accepts_as_payload():
    eth = Ethernet(ethertype=0x9999)
    data = eth.pack() + b"\x00" * 50
    pkt = PARSER.parse(data)
    assert [type(h) for h in pkt.headers] == [Ethernet]
    assert pkt.payload_len == 50


def test_truncated_packet_raises():
    eth = Ethernet(ethertype=int(EtherType.IPV4))
    with pytest.raises(ParseError):
        PARSER.parse(eth.pack() + b"\x45\x00")  # IPv4 header cut short


def test_field_values_preserved_through_roundtrip():
    original = make_tcp_packet(0x01020304, 0x05060708, sport=1111, dport=2222)
    parsed = roundtrip(original)
    assert parsed.require(Ipv4).src == 0x01020304
    assert parsed.require(Tcp).dport == 2222
    assert DEPARSER.deparse(parsed) == DEPARSER.deparse(original)


def test_parse_accepts_any_bytes_like_input():
    frame = DEPARSER.deparse(make_udp_packet(1, 2, sport=7, dport=53, payload_len=100))
    parsed = [
        standard_parser().parse(data)
        for data in (frame, bytearray(frame), memoryview(frame))
    ]
    assert len(frame) == 142
    assert {DEPARSER.deparse(pkt) for pkt in parsed} == {frame}
    assert [pkt.payload_len for pkt in parsed] == [100, 100, 100]


def test_duplicate_state_name_rejected():
    state = ParserState("s", extracts=Ethernet, transitions={DEFAULT: ACCEPT})
    with pytest.raises(ValueError):
        Parser([state, ParserState("s", extracts=Ethernet)], start="s")


def test_unknown_start_state_rejected():
    state = ParserState("s", extracts=Ethernet, transitions={DEFAULT: ACCEPT})
    with pytest.raises(ValueError):
        Parser([state], start="nope")


def test_transition_to_unknown_state_rejected():
    state = ParserState("s", extracts=Ethernet, transitions={DEFAULT: "missing"})
    with pytest.raises(ValueError):
        Parser([state], start="s")


def test_reject_transition_raises_parse_error():
    state = ParserState(
        "s", extracts=Ethernet, select_field="ethertype", transitions={1: ACCEPT}
    )
    parser = Parser([state], start="s")
    data = Ethernet(ethertype=2).pack()
    with pytest.raises(ParseError):
        parser.parse(data)


def test_cycle_detection():
    a = ParserState("a", extracts=Ethernet, transitions={DEFAULT: "b"})
    b = ParserState("b", extracts=Ethernet, transitions={DEFAULT: "a"})
    parser = Parser([a, b], start="a")
    with pytest.raises(ParseError):
        parser.parse(Ethernet().pack() * 10)


def test_state_count():
    assert PARSER.state_count == 8


# ----------------------------------------------------------------------
# Property: every builder packet round-trips byte-exactly
# ----------------------------------------------------------------------
@st.composite
def built_packets(draw):
    choice = draw(st.integers(0, 3))
    src = draw(st.integers(0, (1 << 32) - 1))
    dst = draw(st.integers(0, (1 << 32) - 1))
    sport = draw(st.integers(0, 65_535))
    payload = draw(st.integers(0, 1_500))
    if choice == 0:
        return make_tcp_packet(src, dst, sport=sport, payload_len=payload)
    if choice == 1:
        return make_udp_packet(src, dst, sport=sport, payload_len=payload)
    if choice == 2:
        return make_hula_probe(
            tor_id=draw(st.integers(0, 65_535)),
            path_id=draw(st.integers(0, 65_535)),
            max_util_centi=draw(st.integers(0, (1 << 32) - 1)),
        )
    return make_kv_request(
        op=draw(st.integers(0, 3)), key=draw(st.integers(0, (1 << 64) - 1))
    )


@given(built_packets())
def test_parse_deparse_identity_property(pkt):
    wire = DEPARSER.deparse(pkt)
    parsed = PARSER.parse(wire)
    assert DEPARSER.deparse(parsed) == wire
    assert parsed.total_len == pkt.total_len
    assert [type(h) for h in parsed.headers] == [type(h) for h in pkt.headers]
