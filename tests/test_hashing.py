"""Unit tests for the data-plane hash functions."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.packet.builder import make_udp_packet
from repro.packet.hashing import (
    crc16,
    crc32,
    flow_hash,
    fold_hash,
    ip_pair_hash,
    tuple_hash,
)
from repro.packet.packet import FiveTuple, Packet


def test_crc32_known_value():
    # The classic CRC-32 check value for "123456789".
    assert crc32(b"123456789") == 0xCBF43926


def _crc32_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32_TABLE = _crc32_table()


def _crc32_oracle(data: bytes, seed: int) -> int:
    """Table-driven reflected CRC-32, byte at a time from register ``seed``."""
    crc = seed
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _salted(salt: int, multiplier: int) -> int:
    return (0xFFFFFFFF ^ (salt * multiplier)) & 0xFFFFFFFF


#: Every register seed the library passes: the default, the salted
#: seeds of tuple_hash / ip_pair_hash and CountMinSketch rows (golden
#: ratio multiplier), and the BloomFilter hashes' seeds.
_SEEDS = sorted(
    {0xFFFFFFFF}
    | {_salted(salt, 0x9E3779B9) for salt in range(8)}
    | {_salted(h, 0x85EBCA6B) for h in range(8)}
)


@pytest.mark.parametrize("seed", _SEEDS, ids=hex)
def test_crc32_equals_the_table_driven_oracle(seed):
    rng = random.Random(seed)
    for length in range(65):
        data = rng.randbytes(length)
        assert crc32(data, seed) == _crc32_oracle(data, seed)
    assert crc32(b"123456789", seed) == _crc32_oracle(b"123456789", seed)


def test_crc16_known_value():
    # CRC-16/X-25 (reflected CCITT with inverted in/out) of "123456789".
    assert crc16(b"123456789") == 0x906E


def test_crc_is_deterministic_and_seed_sensitive():
    assert crc32(b"abc") == crc32(b"abc")
    assert crc32(b"abc") != crc32(b"abd")
    assert crc32(b"abc", seed=0) != crc32(b"abc")


def test_fold_hash_range():
    for value in (0, 1, 12345, 2**32 - 1):
        assert 0 <= fold_hash(value, 7) < 7
    with pytest.raises(ValueError):
        fold_hash(1, 0)


def test_flow_hash_same_flow_same_bucket():
    a = make_udp_packet(0x0A000001, 0x0A000002, sport=5, dport=6)
    b = make_udp_packet(0x0A000001, 0x0A000002, sport=5, dport=6, payload_len=900)
    assert flow_hash(a, 1024) == flow_hash(b, 1024)


def test_flow_hash_none_for_non_ip():
    from repro.packet.headers import Ethernet

    assert flow_hash(Packet(headers=[Ethernet()]), 64) is None


def test_salt_selects_independent_functions():
    ftuple = FiveTuple(1, 2, 17, 3, 4)
    buckets = 1 << 16
    values = {tuple_hash(ftuple, buckets, salt=s) for s in range(8)}
    assert len(values) >= 7  # collisions possible but rare


def test_ip_pair_hash_ignores_ports():
    assert ip_pair_hash(1, 2, 64) == ip_pair_hash(1, 2, 64)
    # Direction matters (src++dst concatenation).
    assert ip_pair_hash(1, 2, 1 << 20) != ip_pair_hash(2, 1, 1 << 20)


@given(st.binary(max_size=64), st.integers(1, 4096))
def test_fold_hash_always_in_range_property(data, buckets):
    assert 0 <= fold_hash(crc32(data), buckets) < buckets


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_ip_pair_hash_distributes(src, dst):
    index = ip_pair_hash(src, dst, 1024)
    assert 0 <= index < 1024
