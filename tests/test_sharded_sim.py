"""The sharded simulation engine: windows, fingerprints, workers.

Dynamic half of the sharding stack (docs/SCALING.md): bounded windows
on the kernel, the conservative coordinator, serial-vs-sharded
behavior-fingerprint equality, and the persistent-worker plumbing.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.parallel import (
    PersistentWorker,
    WorkerCrashed,
    default_workers,
)
from repro.experiments.shard_exp import (
    ShardScenario,
    build_shard,
    expected_packets,
    run_serial,
    run_sharded,
    scenario_partition,
)
from repro.packet.packet import Packet
from repro.sim import SimulationError, Simulator
from repro.sim.shard import ShardedSimulator, behavior_fingerprint


# ---------------------------------------------------------------------------
# Kernel: run_until — the bounded-window primitive
# ---------------------------------------------------------------------------


def test_run_until_is_exclusive_and_lands_on_bound():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30):
        sim.call_at(t, fired.append, t)
    assert sim.run_until(30) == 2
    assert fired == [10, 20]
    assert sim.now_ps == 30
    # The event AT the bound is still pending and runs next window.
    assert sim.run_until(31) == 1
    assert fired == [10, 20, 30]


def test_run_until_equal_bound_is_noop():
    sim = Simulator()
    sim.call_at(50, lambda: None)
    sim.run_until(50)
    assert sim.run_until(50) == 0
    assert sim.now_ps == 50


def test_run_until_rejects_past_bound():
    sim = Simulator()
    sim.call_at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(99)


def test_run_until_allows_call_at_on_window_edge():
    # A boundary packet delivered exactly at W must be schedulable
    # after run_until(W) — the coordinator relies on this.
    sim = Simulator()
    fired = []
    sim.call_at(10, fired.append, 10)
    sim.run_until(40)
    sim.call_at(40, fired.append, 40)
    sim.run()
    assert fired == [10, 40]


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(1_000) == 0
    assert sim.now_ps == 1_000


# ---------------------------------------------------------------------------
# Sharded == serial, by behavior fingerprint
# ---------------------------------------------------------------------------

LEAFSPINE = ShardScenario(
    topology="leafspine",
    leaf_count=4,
    spine_count=2,
    hosts_per_leaf=2,
    waves=1,
    packets_per_sender=2,
)
FATTREE = ShardScenario(topology="fattree", k=4, waves=1, packets_per_sender=2)


def test_leafspine_two_shards_match_serial_inline():
    serial = run_serial(LEAFSPINE)
    sharded = run_sharded(LEAFSPINE, shards=2, mode="inline")
    assert sharded.fingerprint == serial.fingerprint
    assert sharded.total_received() == expected_packets(LEAFSPINE)
    assert sharded.stats.windows > 0
    assert sharded.stats.total("boundary_tx") > 0


@pytest.mark.parametrize("shards", [2, 4])
def test_fattree_shards_match_serial_inline(shards):
    serial = run_serial(FATTREE)
    sharded = run_sharded(FATTREE, shards=shards, mode="inline")
    assert sharded.fingerprint == serial.fingerprint
    assert sharded.total_received() == expected_packets(FATTREE)


def test_sharded_run_is_reproducible():
    a = run_sharded(FATTREE, shards=2, mode="inline")
    b = run_sharded(FATTREE, shards=2, mode="inline")
    assert a.fingerprint == b.fingerprint
    assert a.stats.windows == b.stats.windows


def test_zipf_workload_reproducible_across_shard_counts():
    scenario = ShardScenario(
        topology="leafspine",
        leaf_count=4,
        spine_count=2,
        hosts_per_leaf=2,
        workload="zipf",
        packets_per_sender=3,
    )
    a = run_sharded(scenario, shards=2, mode="inline")
    b = run_sharded(scenario, shards=2, mode="inline")
    assert a.fingerprint == b.fingerprint


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_process_mode_matches_serial():
    serial = run_serial(LEAFSPINE)
    sharded = run_sharded(LEAFSPINE, shards=2, mode="process")
    assert sharded.fingerprint == serial.fingerprint
    assert sharded.total_received() == expected_packets(LEAFSPINE)


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_process_coordinator_never_decodes_a_packet(monkeypatch):
    # Boundary packets cross the coordinator as opaque payloads: only the
    # receiving worker unpickles them.  Forked workers count in their own
    # copy of ``decoded``; this process's copy must stay empty.
    serial = run_serial(LEAFSPINE)
    decoded = []
    setstate = Packet.__setstate__

    def counting_setstate(pkt, state):
        decoded.append(pkt)
        setstate(pkt, state)

    monkeypatch.setattr(Packet, "__setstate__", counting_setstate)
    sharded = run_sharded(LEAFSPINE, shards=2, mode="process")
    assert sharded.stats.total("boundary_tx") > 0
    assert decoded == []
    assert sharded.fingerprint == serial.fingerprint


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_process_mode_reports_serialize_time_apart_from_compute():
    stats = run_sharded(LEAFSPINE, shards=2, mode="process").stats
    assert all(counter.serialize_s > 0 for counter in stats.shards)
    assert all(counter.wall_s > 0 for counter in stats.shards)
    summary = stats.as_dict()
    assert summary["serialize_s"] == pytest.approx(
        sum(counter.serialize_s for counter in stats.shards)
    )
    assert "ser s" in stats.summary_rows()[0]


def _build_failing_on_shard_one(shard_id, scenario, shards):
    if shard_id == 1:
        raise RuntimeError("shard 1 cannot build")
    return build_shard(shard_id, scenario, shards)


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_failed_build_leaves_no_worker_behind():
    before = set(multiprocessing.active_children())
    coordinator = ShardedSimulator(
        scenario_partition(LEAFSPINE, 2),
        _build_failing_on_shard_one,
        builder_args=(LEAFSPINE, 2),
        mode="process",
    )
    with pytest.raises(WorkerCrashed, match="shard 1 cannot build"):
        coordinator.run()
    assert set(multiprocessing.active_children()) - before == set()


def test_zero_cut_partition_runs_one_unbounded_window():
    sharded = run_sharded(LEAFSPINE, shards=1, mode="inline")
    serial = run_serial(LEAFSPINE)
    assert sharded.fingerprint == serial.fingerprint
    assert sharded.stats.windows == 1


def test_sharded_simulator_rejects_bad_mode():
    part = scenario_partition(FATTREE, 2)
    with pytest.raises(ValueError):
        ShardedSimulator(part, lambda shard_id: None, mode="threads")


def test_fingerprint_is_order_insensitive():
    a = behavior_fingerprint({"h": [(10, 64), (20, 64)]})
    b = behavior_fingerprint({"h": [(20, 64), (10, 64)]})
    c = behavior_fingerprint({"h": [(10, 64), (21, 64)]})
    assert a == b != c
    assert a["h"][0] == 2  # packets
    assert a["h"][1] == 128  # bytes


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------


def test_default_workers_prefers_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert default_workers() == 3
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: (_ for _ in ()).throw(OSError()),
        raising=False,
    )
    assert default_workers() >= 1


def _echo_main(conn):
    msg = conn.recv()
    conn.send(("echo", msg))


def _dying_main(conn):
    raise SystemExit(3)


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_persistent_worker_roundtrip():
    with PersistentWorker(_echo_main) as worker:
        worker.send(("ping",))
        assert worker.recv() == ("echo", ("ping",))


@pytest.mark.skipif(
    sys.platform not in ("linux", "darwin"), reason="needs POSIX multiprocessing"
)
def test_persistent_worker_crash_raises():
    worker = PersistentWorker(_dying_main)
    try:
        with pytest.raises(WorkerCrashed):
            worker.recv()
    finally:
        worker.close()


# A parent that owns one job-service worker, reports the worker's pid,
# then idles until it is killed.
_ORPHAN_PARENT = """
import time
from repro.experiments.parallel import PersistentWorker
from repro.serve.worker import worker_main

worker = PersistentWorker(worker_main)
print(worker._process.pid, flush=True)
time.sleep(60)
"""


def _exited(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")  # exited; reaping is the new parent's job


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_persistent_worker_exits_when_parent_is_killed():
    # A SIGKILLed parent runs no cleanup, so the only signal its worker
    # gets is EOF on the pipe — which never arrives if the forked child
    # still holds the parent's end of that pipe itself.
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    pid = None
    try:
        pid = int(parent.stdout.readline())
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while not _exited(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _exited(pid), "worker outlived its SIGKILLed parent"
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        if pid is not None and not _exited(pid):
            os.kill(pid, signal.SIGKILL)
