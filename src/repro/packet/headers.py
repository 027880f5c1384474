"""Protocol header definitions with byte-level pack/unpack.

Headers are declared as ordered lists of :class:`HeaderField` (name,
width in bits), mirroring how P4 header types are declared.  The generic
:class:`Header` base packs and unpacks any such declaration to and from
network-order bytes, so adding a new protocol is a declaration, not a
parser rewrite.

Alongside the standard Ethernet/IPv4/TCP/UDP stack, the module defines
the headers used by the paper's applications:

* :class:`HulaProbe` — HULA path-utilization probes (generated by timer
  events in the event-driven architecture).
* :class:`LivenessEcho` — data-plane neighbor liveness echo
  request/reply.
* :class:`IntReport` — aggregated in-band telemetry reports.
* :class:`KeyValue` — NetCache-style key-value request/reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from typing import ClassVar, Dict, List, Tuple, Type

#: Per-header-class compiled flat-field readers: HeaderClass -> getter
#: returning the field values as one tuple in FIELDS order.  This is the
#: array-backed view of hot packet state: the flow cache keys and the
#: flow fastpath's path walk both run on these flat rows instead of
#: attribute-at-a-time access or header clones.
_FIELD_GETTERS: Dict[type, object] = {}

#: Per-header-class name -> position-in-FIELDS maps (for flat rows).
_FIELD_INDEXES: Dict[type, Dict[str, int]] = {}


def field_getter(cls: type):
    """A compiled reader mapping a ``cls`` instance to its flat value row."""
    getter = _FIELD_GETTERS.get(cls)
    if getter is None:
        names = tuple(f.name for f in cls.FIELDS)
        if len(names) == 1:
            # attrgetter with one name returns a scalar; normalize.
            single = attrgetter(names[0])
            getter = lambda h, _g=single: (_g(h),)  # noqa: E731
        else:
            getter = attrgetter(*names)
        _FIELD_GETTERS[cls] = getter
    return getter


def field_index(cls: type) -> Dict[str, int]:
    """field name -> position in :func:`field_getter`'s flat row."""
    index = _FIELD_INDEXES.get(cls)
    if index is None:
        index = {f.name: i for i, f in enumerate(cls.FIELDS)}
        _FIELD_INDEXES[cls] = index
    return index


class EtherType(IntEnum):
    """EtherType values recognized by the reproduction's parsers."""

    IPV4 = 0x0800
    ARP = 0x0806
    HULA = 0x2345
    LIVENESS = 0x2346
    INT_REPORT = 0x2347
    # The Event Merger's injected empty carriers on the wire (the model
    # delivers their records without building the frame).
    EVENT_METADATA = 0x88B5


class IpProto(IntEnum):
    """IPv4 protocol numbers recognized by the reproduction's parsers."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass(frozen=True)
class HeaderField:
    """One field of a header: a name and a width in bits.

    Widths need not be byte multiples individually, but each header's
    total width must be (as in P4 headers).
    """

    name: str
    width_bits: int

    def __post_init__(self) -> None:
        if self.width_bits <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")


class _HeaderMeta(type):
    """Derives ``__slots__`` from ``FIELDS`` at class creation.

    Headers are allocated in the packet hot path, so field storage is
    slot-based: one descriptor per declared field, no per-instance
    ``__dict__``.  A subclass may still declare ``__slots__`` itself to
    opt out or add extras; field names already slotted on a base class
    are not re-declared.
    """

    def __new__(mcls, name, bases, namespace):
        if "__slots__" not in namespace:
            inherited = set()
            for base in bases:
                for klass in base.__mro__:
                    inherited.update(klass.__dict__.get("__slots__", ()))
            namespace["__slots__"] = tuple(
                f.name
                for f in namespace.get("FIELDS", ())
                if f.name not in inherited
            )
        cls = super().__new__(mcls, name, bases, namespace)
        fields = namespace.get("FIELDS", ())
        if fields and "copy" not in namespace:
            # Headers are copied once per prototype-built packet; a flat
            # generated copier beats the generic per-field getattr loop.
            assigns = "; ".join(f"clone.{f.name} = self.{f.name}" for f in fields)
            scope = {"_new": object.__new__, "_cls": cls}
            exec(
                f"def copy(self):\n"
                f"    clone = _new(_cls)\n"
                f"    {assigns}\n"
                f"    return clone",
                scope,
            )
            copy_fn = scope["copy"]
            copy_fn.__qualname__ = f"{name}.copy"
            copy_fn.__doc__ = Header.copy.__doc__ if bases else None
            cls.copy = copy_fn
        return cls


class Header(metaclass=_HeaderMeta):
    """Base class for declarative, byte-serializable protocol headers.

    Subclasses set ``FIELDS`` (ordered field declarations) and gain:

    * keyword construction with range checking,
    * slot-backed field storage (via the metaclass),
    * :meth:`pack` / :meth:`unpack` to and from network-order bytes,
    * value access via attributes,
    * structural equality and a readable repr.
    """

    FIELDS: ClassVar[Tuple[HeaderField, ...]] = ()
    NAME: ClassVar[str] = "header"

    def __init__(self, **values: int) -> None:
        cls = type(self)
        # (field, name, exclusive bound) per declared field, memoized per
        # class — packet construction is a hot path and rebuilding the
        # declared-name set per instance dominated it.
        spec = cls.__dict__.get("_init_spec")
        if spec is None:
            spec = tuple((f, f.name, 1 << f.width_bits) for f in cls.FIELDS)
            cls._init_spec = spec
        setattr_ = object.__setattr__
        for field, name, bound in spec:
            value = values.pop(name, 0)
            if not isinstance(value, int) or value < 0 or value >= bound:
                self._check_range(field, value)  # raises with the details
            setattr_(self, name, value)
        if values:
            declared = {f.name for f in self.FIELDS}
            raise TypeError(
                f"{type(self).__name__} has no fields {sorted(values)}; "
                f"declared fields are {sorted(declared)}"
            )

    @staticmethod
    def _check_range(field: HeaderField, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"field {field.name!r} must be int, got {type(value)}")
        if value < 0 or value >= (1 << field.width_bits):
            raise ValueError(
                f"field {field.name!r} value {value} does not fit in "
                f"{field.width_bits} bits"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @classmethod
    def width_bits(cls) -> int:
        """Total header width in bits (memoized per class)."""
        # cls.__dict__ (not getattr) so a subclass never inherits its
        # parent's cached total.
        bits = cls.__dict__.get("_width_bits")
        if bits is None:
            bits = sum(f.width_bits for f in cls.FIELDS)
            cls._width_bits = bits
        return bits

    @classmethod
    def width_bytes(cls) -> int:
        """Total header width in bytes (must be a whole number; memoized)."""
        nbytes = cls.__dict__.get("_width_bytes")
        if nbytes is None:
            bits = cls.width_bits()
            if bits % 8:
                raise ValueError(f"{cls.__name__} is {bits} bits, not byte aligned")
            nbytes = bits // 8
            cls._width_bytes = nbytes
        return nbytes

    def field_values(self) -> Dict[str, int]:
        """The header's fields as an ordered name→value mapping."""
        return {f.name: getattr(self, f.name) for f in self.FIELDS}

    @classmethod
    def _from_values(cls, values: Tuple[int, ...]) -> "Header":
        """Construct from pre-validated field values, skipping checks.

        Internal fast path for :meth:`unpack`; the caller guarantees ``values`` aligns with ``FIELDS`` and every
        value fits its declared width.
        """
        obj = cls.__new__(cls)
        set_ = object.__setattr__
        for field, value in zip(cls.FIELDS, values):
            set_(obj, field.name, value)
        return obj

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialize to network-order bytes."""
        acc = 0
        for field in self.FIELDS:
            acc = (acc << field.width_bits) | getattr(self, field.name)
        return acc.to_bytes(self.width_bytes(), "big")

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        """Deserialize from the first ``width_bytes()`` of ``data``."""
        nbytes = cls.width_bytes()
        if len(data) < nbytes:
            raise ValueError(
                f"{cls.__name__} needs {nbytes} bytes, got {len(data)}"
            )
        acc = int.from_bytes(data[:nbytes], "big")
        values: List[int] = []
        shift = cls.width_bits()
        for field in cls.FIELDS:
            shift -= field.width_bits
            values.append((acc >> shift) & ((1 << field.width_bits) - 1))
        # Masked values fit their widths by construction, so skip the
        # per-field range checks of the keyword constructor.
        return cls._from_values(tuple(values))

    # ------------------------------------------------------------------
    # Mutation (headers are mutable during pipeline processing, like P4)
    # ------------------------------------------------------------------
    def set(self, **values: int) -> "Header":
        """Set one or more fields in place (range checked); returns self."""
        cls = type(self)
        by_name = cls.__dict__.get("_fields_by_name")
        if by_name is None:
            by_name = {f.name: f for f in cls.FIELDS}
            cls._fields_by_name = by_name
        for name, value in values.items():
            field = by_name.get(name)
            if field is None:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            self._check_range(field, value)
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _field_names(cls) -> Tuple[str, ...]:
        """Declared field names, memoized per class."""
        names = cls.__dict__.get("_names")
        if names is None:
            names = tuple(f.name for f in cls.FIELDS)
            cls._names = names
        return names

    def values(self) -> Tuple[int, ...]:
        """Field values as one flat tuple in ``FIELDS`` order."""
        return field_getter(type(self))(self)

    def load_values(self, values) -> "Header":
        """Bulk-store a flat row produced by :meth:`values`.

        Skips range validation (the row came from validated instances);
        the inverse of :func:`field_getter` for hot paths.
        """
        set_ = object.__setattr__
        for name, value in zip(type(self)._field_names(), values):
            set_(self, name, value)
        return self

    def copy(self) -> "Header":
        """An independent copy of this header.

        Field values were validated when this instance was built, so
        the copy clones state directly instead of re-validating through
        the keyword constructor.
        """
        cls = type(self)
        clone = object.__new__(cls)
        set_ = object.__setattr__
        for name in cls._field_names():
            set_(clone, name, getattr(self, name))
        return clone

    # ------------------------------------------------------------------
    # Pickling (explicit: slot-backed instances have no __dict__)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple[int, ...]:
        return tuple(getattr(self, name) for name in type(self)._field_names())

    def __setstate__(self, state: Tuple[int, ...]) -> None:
        set_ = object.__setattr__
        for name, value in zip(type(self)._field_names(), state):
            set_(self, name, value)

    def __reduce__(self):
        # object.__reduce_ex__(2) on a __dict__-less slotted class would
        # work, but the explicit form keeps the payload a flat tuple and
        # survives future slot reshuffles as long as FIELDS order holds.
        return (_rebuild_header, (type(self), self.__getstate__()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field_values() == other.field_values()

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self.field_values().items())))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.field_values().items())
        return f"{type(self).__name__}({fields})"


def _rebuild_header(cls: Type[Header], state: Tuple[int, ...]) -> Header:
    """Pickle helper: rebuild a header from its field-value tuple."""
    obj = cls.__new__(cls)
    obj.__setstate__(state)
    return obj


class Ethernet(Header):
    """Ethernet II header (14 bytes)."""

    NAME = "ethernet"
    FIELDS = (
        HeaderField("dst", 48),
        HeaderField("src", 48),
        HeaderField("ethertype", 16),
    )


class Ipv4(Header):
    """IPv4 header without options (20 bytes)."""

    NAME = "ipv4"
    FIELDS = (
        HeaderField("version", 4),
        HeaderField("ihl", 4),
        HeaderField("dscp", 6),
        HeaderField("ecn", 2),
        HeaderField("total_len", 16),
        HeaderField("identification", 16),
        HeaderField("flags", 3),
        HeaderField("frag_offset", 13),
        HeaderField("ttl", 8),
        HeaderField("protocol", 8),
        HeaderField("checksum", 16),
        HeaderField("src", 32),
        HeaderField("dst", 32),
    )

    def __init__(self, **values: int) -> None:
        values.setdefault("version", 4)
        values.setdefault("ihl", 5)
        values.setdefault("ttl", 64)
        super().__init__(**values)


class Tcp(Header):
    """TCP header without options (20 bytes)."""

    NAME = "tcp"
    FIELDS = (
        HeaderField("sport", 16),
        HeaderField("dport", 16),
        HeaderField("seq", 32),
        HeaderField("ack", 32),
        HeaderField("data_offset", 4),
        HeaderField("reserved", 4),
        HeaderField("flags", 8),
        HeaderField("window", 16),
        HeaderField("checksum", 16),
        HeaderField("urgent", 16),
    )

    def __init__(self, **values: int) -> None:
        values.setdefault("data_offset", 5)
        super().__init__(**values)


class Udp(Header):
    """UDP header (8 bytes)."""

    NAME = "udp"
    FIELDS = (
        HeaderField("sport", 16),
        HeaderField("dport", 16),
        HeaderField("length", 16),
        HeaderField("checksum", 16),
    )


class HulaProbe(Header):
    """HULA path-utilization probe (paper §3, congestion-aware forwarding).

    ``max_util_centi`` carries the maximum link utilization (in 1/100ths
    of a percent) seen along the probe's path; ``tor_id`` identifies the
    originating top-of-rack switch; ``path_id`` identifies the upstream
    path the probe traversed.
    """

    NAME = "hula"
    FIELDS = (
        HeaderField("tor_id", 16),
        HeaderField("path_id", 16),
        HeaderField("max_util_centi", 32),
    )


class LivenessEcho(Header):
    """Data-plane neighbor liveness echo (paper §5, student project).

    ``kind`` is 0 for request, 1 for reply, 2 for a failure notification
    sent to the central monitor.  ``origin`` names the probing switch and
    ``nonce`` matches replies to requests.
    """

    NAME = "liveness"
    KIND_REQUEST = 0
    KIND_REPLY = 1
    KIND_NOTIFY = 2
    FIELDS = (
        HeaderField("kind", 8),
        HeaderField("origin", 16),
        HeaderField("target", 16),
        HeaderField("nonce", 32),
    )


class IntReport(Header):
    """Aggregated in-band telemetry report (paper §3, monitoring).

    Carries the congestion aggregates a timer event flushes to the
    monitoring system: queue occupancy, drop count, and active flows over
    the last window.
    """

    NAME = "int_report"
    FIELDS = (
        HeaderField("switch_id", 16),
        HeaderField("window_id", 32),
        HeaderField("max_queue_bytes", 32),
        HeaderField("drops", 32),
        HeaderField("active_flows", 32),
    )


class KeyValue(Header):
    """NetCache-style key-value header (paper §3, in-network computing).

    ``op`` is 0=GET, 1=PUT, 2=REPLY-HIT, 3=REPLY-MISS.
    """

    NAME = "kv"
    OP_GET = 0
    OP_PUT = 1
    OP_REPLY_HIT = 2
    OP_REPLY_MISS = 3
    OP_WRITE_ACK = 4
    FIELDS = (
        HeaderField("op", 8),
        HeaderField("key", 64),
        HeaderField("value", 64),
    )


#: All header classes, by their P4-style instance name.
HEADER_TYPES: Dict[str, Type[Header]] = {
    cls.NAME: cls
    for cls in (Ethernet, Ipv4, Tcp, Udp, HulaProbe, LivenessEcho, IntReport, KeyValue)
}


def ipv4_checksum(header: Ipv4) -> int:
    """Compute the RFC 791 header checksum of an IPv4 header.

    The ``checksum`` field itself is treated as zero during computation,
    as on the wire.
    """
    data = bytearray(header.copy().set(checksum=0).pack())
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
