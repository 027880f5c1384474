"""Hash functions used by the data plane.

PISA targets expose hardware CRC units for flow hashing; the paper's
microburst example computes ``hash(hdr.ip.src ++ hdr.ip.dst)`` to index
its ``shared_register``.  We implement CRC-16/CCITT and CRC-32 (the
polynomials common in switch hash units) plus a fold helper that maps a
hash into a register index range.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from repro.packet.packet import FiveTuple, Packet

_CRC16_POLY = 0x8408  # reflected CCITT


def _make_table(poly: int, width: int) -> List[int]:
    mask = (1 << width) - 1
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc & mask)
    return table


_CRC16_TABLE = _make_table(_CRC16_POLY, 16)


def crc32(data: bytes, seed: int = 0xFFFFFFFF) -> int:
    """CRC-32 (IEEE 802.3) of ``data`` from register ``seed``; zlib runs
    the same reflected polynomial but takes the register inverted."""
    return zlib.crc32(data, seed ^ 0xFFFFFFFF)


def crc16(data: bytes, seed: int = 0xFFFF) -> int:
    """CRC-16/CCITT of ``data``."""
    crc = seed
    for byte in data:
        crc = (crc >> 8) ^ _CRC16_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFF


def fold_hash(value: int, buckets: int) -> int:
    """Map a hash value into [0, buckets) by modulo.

    Raises ValueError for non-positive bucket counts so misconfigured
    register sizes fail loudly.
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    return value % buckets


def flow_hash(pkt: Packet, buckets: int, salt: int = 0) -> Optional[int]:
    """Hash a packet's five-tuple into a register index.

    Returns None for packets without an IPv4 header (they carry no flow
    identity).  ``salt`` selects independent hash functions, as used by
    the count-min sketch rows.
    """
    ftuple = pkt.five_tuple()
    if ftuple is None:
        return None
    return tuple_hash(ftuple, buckets, salt)


def tuple_hash(ftuple: FiveTuple, buckets: int, salt: int = 0) -> int:
    """Hash a :class:`FiveTuple` into [0, buckets) with a salted CRC-32."""
    seed = (0xFFFFFFFF ^ (salt * 0x9E3779B9)) & 0xFFFFFFFF
    return fold_hash(crc32(ftuple.as_bytes(), seed=seed), buckets)


def ip_pair_hash(src_ip: int, dst_ip: int, buckets: int, salt: int = 0) -> int:
    """The paper's microburst flow id: hash of source ++ destination IP."""
    data = src_ip.to_bytes(4, "big") + dst_ip.to_bytes(4, "big")
    seed = (0xFFFFFFFF ^ (salt * 0x9E3779B9)) & 0xFFFFFFFF
    return fold_hash(crc32(data, seed=seed), buckets)
