"""CI smoke test for the scenario job service (``repro serve``).

Boots the service on a unix socket, submits three registered scenarios
through the wire protocol — a phased experiment, a single-shot
experiment, and the fork-amortized chaos grid — and gates on:

* every job completing in state ``done`` (no violations, no crashes),
* telemetry well-formedness: monotone ``now_ps``, ``progress`` ending
  at 1.0, non-negative event counts, the declared window count, and
  ``published`` / ``handled`` / ``events_executed`` never decreasing
  across a phased job's windows,
* the phased job's final counts being **equal** to a standalone run of
  the same spec under an ``EventCounters`` observer — the service reads
  them from the buses' own counters, which must count what an observer
  would,
* the forked grid's per-cell fingerprints being **identical** to
  standalone ``run_cell`` runs of the same ten (plan, app, seed) cells
  — the acceptance check that ``Simulator.fork`` changes cost, never
  behavior.

Run from the repository root::

    python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.serve.client import ServiceClient  # noqa: E402

#: The phased submission, checked against a standalone observed run.
PHASED = ("microburst/event-driven", {"duration_ps": 6_000_000_000})

#: The three submissions (one forked chaos variant, per the CI contract).
SUBMISSIONS = (
    PHASED,
    ("table2/rows", {}),
    ("chaos/forked-grid", {}),
)

WINDOWS = 4


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_telemetry(name: str, windows, phased: bool) -> None:
    if not windows:
        fail(f"{name}: no telemetry received")
    for snapshot in windows:
        for key in ("published", "handled", "dropped"):
            if int(snapshot[key]) < 0:
                fail(f"{name}: negative counter {key} in {snapshot}")
    if phased:
        if len(windows) != WINDOWS:
            fail(f"{name}: expected {WINDOWS} windows, got {len(windows)}")
        times = [snapshot["now_ps"] for snapshot in windows]
        if times != sorted(times):
            fail(f"{name}: non-monotone now_ps {times}")
        progress = [snapshot["progress"] for snapshot in windows]
        if any(not 0.0 <= p <= 1.0 for p in progress):
            fail(f"{name}: progress outside [0, 1]: {progress}")
        if progress[-1] != 1.0:
            fail(f"{name}: final progress {progress[-1]} != 1.0")
        for key in ("published", "handled", "events_executed"):
            counts = [snapshot[key] for snapshot in windows]
            if counts != sorted(counts):
                fail(f"{name}: {key} decreased across windows: {counts}")
    print(f"ok: {name} telemetry well-formed ({len(windows)} window(s))")


def check_phased_counts(final) -> None:
    """The phased job's final counts equal an observed standalone run."""
    from repro import scenarios
    from repro.obs import EventCounters, observing

    name, params = PHASED
    scenarios.load_all()
    spec = scenarios.get(name).with_params(**params)
    counters = EventCounters()
    with observing(counters):
        setup = spec.build()
    spec.finish(setup)
    expected = {
        "now_ps": setup.network.sim.now_ps,
        "events_executed": setup.network.sim.events_executed,
        **counters.totals(),
    }
    got = {key: final[key] for key in expected}
    if got != expected:
        fail(f"{name}: service counts {got} != observed standalone {expected}")
    print(f"ok: {name} final counts match an observed standalone run")


def main() -> int:
    socket_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-"), "serve.sock"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            "2",
            "--windows",
            str(WINDOWS),
        ],
        env=env,
        cwd=ROOT,
    )
    try:
        deadline = time.time() + 120
        while not os.path.exists(socket_path):
            if proc.poll() is not None:
                fail(f"service exited early (code {proc.returncode})")
            if time.time() > deadline:
                fail("service socket never appeared")
            time.sleep(0.2)

        with ServiceClient(socket_path, timeout=1800) as client:
            hello = client.expect("hello")
            print(
                f"service up: protocol {hello['protocol']}, "
                f"{hello['scenarios']} scenarios, {hello['workers']} workers"
            )
            jobs = {}
            for name, params in SUBMISSIONS:
                reply = client.expect("submit", scenario=name, params=params)
                jobs[reply["job"]] = name
                print(f"submitted {name} as {reply['job']}")
            results = {}
            for job_id, name in jobs.items():
                state = client.wait(job_id)
                if state != "done":
                    status = client.expect("status", job=job_id)
                    fail(f"{name} finished in state {state}: {status['job']}")
                results[name] = client.expect("result", job=job_id)["result"]
                phased = name == "microburst/event-driven"
                check_telemetry(name, client.telemetry(job_id), phased)
                print(f"ok: {name} done")
            client.expect("shutdown")
        proc.wait(timeout=60)

        check_phased_counts(results[PHASED[0]]["telemetry"])

        grid = results["chaos/forked-grid"].get("value")
        if not isinstance(grid, dict) or "fingerprints" not in grid:
            fail("forked grid returned no structured fingerprints")
        if grid["violations"] != 0:
            fail(f"forked grid reported violations: {grid['summary']}")
        forked = grid["fingerprints"]
        if len(forked) != 10:
            fail(f"expected the 10-variant grid, got {sorted(forked)}")

        # The acceptance check: the same ten cells run standalone, from
        # scratch, must produce identical fingerprints.
        from repro.faults.chaos import run_cell

        for cell, fingerprint in sorted(forked.items()):
            plan, app, seed = cell.split("/")
            record = run_cell(plan, app, int(seed))
            if record["fingerprint"] != fingerprint:
                fail(
                    f"fingerprint mismatch for {cell}: forked={fingerprint} "
                    f"standalone={record['fingerprint']}"
                )
            print(f"ok: {cell} fingerprint {fingerprint} matches standalone")

        print("\nserve smoke: all checks passed")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
