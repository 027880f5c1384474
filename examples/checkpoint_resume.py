#!/usr/bin/env python
"""Checkpoint a run mid-flight, restore it, and finish both copies.

The §2 microburst experiment runs to its halfway point, a checkpoint
captures the whole simulator — scheduler queue, clock, every extern's
StateStore cells, the workload generators' RNG state — and then the
original and the restored copy both run to completion.  They produce
the same detections, the same extern contents, and the same event
counts, demonstrating that a checkpoint is a faithful fork of the
simulation.

This example restores in-process for brevity; the CLI does the same
across processes::

    python -m repro.cli checkpoint --ckpt mb.ckpt --at-ps 10000000000
    python -m repro.cli resume --ckpt mb.ckpt

Run:  python examples/checkpoint_resume.py
"""

import os
import tempfile

from repro.experiments.microburst_exp import (
    finish_event_driven,
    prepare_event_driven,
)
from repro.sim.checkpoint import inspect_checkpoint, load_checkpoint
from repro.sim.units import MILLISECONDS


def main() -> None:
    duration = 6 * MILLISECONDS
    halfway = duration // 2

    # --- Build the experiment and run the first half ------------------
    setup = prepare_event_driven(duration_ps=duration)
    setup.network.run(until_ps=halfway)
    sim = setup.network.sim
    print(f"paused at {sim.now_ps}ps after {sim.events_executed} events")

    # --- Checkpoint: one file holds the simulator and the experiment --
    path = os.path.join(tempfile.mkdtemp(), "microburst.ckpt")
    sim.checkpoint(path, state=setup, label="halfway")
    header = inspect_checkpoint(path)  # header-only read: no unpickling
    print(
        f"checkpoint: {os.path.getsize(path)} bytes, "
        f"{len(header['stores'])} state stores, "
        f"{header['pending_events']} pending events"
    )

    # --- Finish the original... ---------------------------------------
    original = finish_event_driven(setup)

    # --- ...and the restored copy (fresh object graph) ----------------
    restored_sim, restored_setup, _header = load_checkpoint(path)
    restored = finish_event_driven(restored_setup)

    print("\noriginal :", original.summary_row())
    print("restored :", restored.summary_row())
    assert restored.detections_total == original.detections_total
    assert restored.culprit_detected == original.culprit_detected
    assert restored.detection_latency_ps == original.detection_latency_ps
    assert restored_sim.now_ps == setup.network.sim.now_ps
    assert restored_sim.events_executed == setup.network.sim.events_executed
    assert (
        restored_setup.detector.flow_buf_size.snapshot()
        == setup.detector.flow_buf_size.snapshot()
    )
    print("\nrestored run matches the uninterrupted one exactly")
    os.remove(path)


if __name__ == "__main__":
    main()
