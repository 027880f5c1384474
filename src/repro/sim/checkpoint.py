"""Whole-simulator checkpoint/restore.

A checkpoint captures everything a deterministic resume needs:

* the scheduler queue contents as a portable, (time, priority,
  seqno)-sorted event list — see ``Simulator._export_state``,
* the kernel clock, seqno counter, and executed-event count, so the
  resumed total order continues exactly where it stopped,
* the experiment object graph handed in as ``state`` — switches,
  programs, hosts, links — which transitively pickles every
  :class:`repro.state.store.StateStore` (extern cells, link state) and
  every :class:`repro.sim.rng.SeededRng` (``random.Random`` pickles
  with its Mersenne state), and
* a manifest of the StateStores in the payload (extern metadata) for
  inspection without loading it.

On-disk format: two consecutive pickle frames in one file.  Frame one
is a small JSON-able **header** dict — magic, version, clock, event
counts, store manifest, and the ``zlib.crc32`` of frame two — so
:func:`inspect_checkpoint` can describe a file without unpickling the
full object graph.  Frame two is the **payload**:
``{"sim": Simulator, "state": <user object>}``.

One format version per pickled layout: any change to what an object
in the graph pickles bumps :data:`CHECKPOINT_VERSION`, and a file of
any other version is rejected with :class:`CheckpointError`, not
migrated — no ``__setstate__`` carries an older layout forward.
:func:`inspect_checkpoint` checks only the magic, so it still reads an
old or newer file's header.  A truncated or corrupted payload fails
the checksum and raises :class:`CheckpointError` too.

What is deliberately *not* captured: execution observers (process-local
instrumentation; re-attach after restore), cancelled tombstones and
free-list shells (performance artifacts), and module-level id counters
(packet/event ids restart in a fresh process — they are cosmetic labels
and do not participate in event ordering).

Checkpoints are Python pickles: load them only from trusted sources,
and prefer the same interpreter version that wrote them.
"""

from __future__ import annotations

import io
import pickle
import sys
import zlib
from typing import Any, Dict, List, Tuple

from repro.sim.kernel import Simulator
from repro.state.store import StateStore

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "inspect_checkpoint",
    "dumps_checkpoint",
    "loads_checkpoint",
]

#: Format marker in the header frame.
CHECKPOINT_MAGIC = "repro-checkpoint"

#: The pickled layout this build writes and reads; bump it on any layout
#: change (``tests/test_checkpoint.py`` pins the layout to it).
CHECKPOINT_VERSION = 5

#: Pickle protocol used for both frames (supported since Python 3.4).
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """Raised for unreadable, foreign, corrupted, or other-version checkpoints."""


def _pickle_payload(
    sim: Simulator, state: Any
) -> Tuple[bytes, List[Dict[str, Any]]]:
    """The payload frame, and one manifest row per store it holds.

    The pickler's memo holds every object the payload pickled, so the
    rows describe exactly this payload's stores, not every store alive
    in the process.  The memo is read once after pickling, so pickling
    itself runs no Python hook per object.  Rows are sorted by name,
    ties in pickling order (the memo index), so equal graphs give equal
    headers.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=_PICKLE_PROTOCOL)
    pickler.dump({"sim": sim, "state": state})
    stores = sorted(
        (obj.name, index, obj)
        for index, obj in pickler.memo.copy().values()
        if type(obj) is StateStore
    )
    return buffer.getvalue(), [store.describe() for _name, _index, store in stores]


def _write_checkpoint(
    fh, sim: Simulator, state: Any, label: str
) -> Dict[str, Any]:
    """Write the two-frame checkpoint format to a binary file object."""
    payload, stores = _pickle_payload(sim, state)
    header: Dict[str, Any] = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "label": label,
        "python": sys.version.split()[0],
        "now_ps": sim.now_ps,
        "events_executed": sim.events_executed,
        "pending_events": sim.pending_events,
        "stores": stores,
        "payload_crc32": zlib.crc32(payload),
    }
    pickle.dump(header, fh, protocol=_PICKLE_PROTOCOL)
    fh.write(payload)
    return header


def save_checkpoint(
    path: str,
    sim: Simulator,
    state: Any = None,
    label: str = "",
) -> Dict[str, Any]:
    """Write ``sim`` (and the experiment ``state`` riding along) to ``path``.

    Returns the header dict that was written.
    """
    with open(path, "wb") as fh:
        return _write_checkpoint(fh, sim, state, label)


def dumps_checkpoint(
    sim: Simulator, state: Any = None, label: str = ""
) -> bytes:
    """The checkpoint as bytes — same two-frame format, no file.

    This is the substrate of service-side preemption, where checkpoints
    travel over a pipe rather than through the filesystem.
    """
    buffer = io.BytesIO()
    _write_checkpoint(buffer, sim, state, label)
    return buffer.getvalue()


def _read_header(fh) -> Dict[str, Any]:
    try:
        header = pickle.load(fh)
    except Exception as exc:
        raise CheckpointError(f"not a repro checkpoint: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a repro checkpoint (bad magic)")
    return header


def inspect_checkpoint(path: str) -> Dict[str, Any]:
    """Read only the header frame, of any version: cheap, no object graph."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def _read(data: bytes) -> Tuple[Simulator, Any, Dict[str, Any]]:
    """Read both frames from ``data``; neither read copies the payload
    (a BytesIO shares the bytes it starts from)."""
    fh = io.BytesIO(data)
    header = _read_header(fh)
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} cannot be read by this "
            f"build, which reads version {CHECKPOINT_VERSION} only"
        )
    payload_frame = memoryview(data)[fh.tell():]
    if zlib.crc32(payload_frame) != header.get("payload_crc32"):
        raise CheckpointError("corrupt checkpoint payload: checksum mismatch")
    try:
        payload = pickle.loads(payload_frame)
    except Exception as exc:
        # Includes a payload naming a class this tree no longer has
        # (pickle raises AttributeError/ImportError for those).
        raise CheckpointError(f"corrupt checkpoint payload: {exc}") from exc
    sim = payload.get("sim") if isinstance(payload, dict) else None
    if not isinstance(sim, Simulator):
        raise CheckpointError("checkpoint payload holds no Simulator")
    return sim, payload.get("state"), header


def load_checkpoint(path: str) -> Tuple[Simulator, Any, Dict[str, Any]]:
    """Load a checkpoint; returns ``(sim, state, header)``."""
    with open(path, "rb") as fh:
        return _read(fh.read())


def loads_checkpoint(data: bytes) -> Tuple[Simulator, Any, Dict[str, Any]]:
    """Load a checkpoint from bytes; returns ``(sim, state, header)``."""
    return _read(data)
