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
* a manifest of live StateStores (extern metadata) for inspection
  without loading the payload.

On-disk format (version 1): two consecutive pickle frames in one file.
Frame one is a small JSON-able **header** dict — magic, version,
clock, event counts, store manifest — so
:func:`inspect_checkpoint` can describe a file without unpickling the
full object graph.  Frame two is the **payload**:
``{"sim": Simulator, "state": <user object>}``.

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
from typing import Any, Dict, Tuple

from repro.sim.kernel import Simulator

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

#: Current on-disk format version.
CHECKPOINT_VERSION = 1

#: Pickle protocol used for both frames (supported since Python 3.4).
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """Raised for unreadable, foreign, or future-versioned checkpoints."""


def _write_checkpoint(
    fh, sim: Simulator, state: Any, label: str
) -> Dict[str, Any]:
    """Write the two-frame checkpoint format to a binary file object."""
    from repro.state.store import store_manifest

    header: Dict[str, Any] = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "label": label,
        "python": sys.version.split()[0],
        "now_ps": sim.now_ps,
        "events_executed": sim.events_executed,
        "pending_events": sim.pending_events,
        "stores": store_manifest(),
    }
    payload = {"sim": sim, "state": state}
    pickle.dump(header, fh, protocol=_PICKLE_PROTOCOL)
    pickle.dump(payload, fh, protocol=_PICKLE_PROTOCOL)
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

    This is the substrate of :meth:`Simulator.fork` (snapshot a live
    experiment and restore it into a fresh instance without touching
    disk) and of service-side preemption, where checkpoints travel over
    a pipe rather than through the filesystem.
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
    version = header.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is newer than supported "
            f"version {CHECKPOINT_VERSION}"
        )
    return header


def inspect_checkpoint(path: str) -> Dict[str, Any]:
    """Read only the header frame: cheap metadata, no object graph."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def _read(fh) -> Tuple[Simulator, Any, Dict[str, Any]]:
    """Read both frames from a binary file object."""
    header = _read_header(fh)
    try:
        payload = pickle.load(fh)
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
        return _read(fh)


def loads_checkpoint(data: bytes) -> Tuple[Simulator, Any, Dict[str, Any]]:
    """Load a checkpoint from bytes; returns ``(sim, state, header)``."""
    return _read(io.BytesIO(data))
