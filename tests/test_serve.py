"""The job service: protocol round-trips, admission, crashes, preemption.

Satellite guarantees under test:

* submit/status/result/cancel round-trips over the service's handle
  path and over a real unix-socket server,
* ``repro serve`` without ``--socket`` answers over its own
  stdin/stdout and exits 0 on ``shutdown``,
* queue saturation — submissions beyond the bound are refused
  synchronously, never silently dropped,
* a worker process crash (``WorkerCrashed``) respawns the worker and
  retries the job once; a second crash fails it; a job *exception* is a
  failure without a retry,
* a running phased job preempts into an in-memory checkpoint on cancel
  and resumes from it to the same result an uninterrupted run prints,
* a phased job's telemetry, read from the buses' own counters, equals
  an observed in-process run of the same spec window by window.
"""

import asyncio
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import scenarios
from repro.obs import EventCounters, observing
from repro.scenarios import ScenarioSpec
from repro.serve.protocol import (
    ProtocolError,
    decode,
    encode,
    error_reply,
    event_message,
    ok_reply,
)
from repro.serve.service import JobService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: A phased scenario small enough for tests (2 ms of simulated time).
FAST_PHASED = {"duration_ps": 2_000_000_000}

#: The telemetry fields an observed reference run can reproduce.
TELEMETRY_KEYS = ("now_ps", "events_executed", "published", "handled", "dropped")


def _observed_reference(windows: int) -> list:
    """``TELEMETRY_KEYS`` of an in-process run of the phased job under an
    :class:`EventCounters` observer, cut at the worker's window
    boundaries: one record per window, then the final one."""
    scenarios.load_all()
    spec = scenarios.get("microburst/event-driven").with_params(**FAST_PHASED)
    counters = EventCounters()
    with observing(counters):
        setup = spec.build()
    sim = setup.network.sim

    def record():
        return {
            "now_ps": sim.now_ps,
            "events_executed": sim.events_executed,
            **counters.totals(),
        }

    start_ps = sim.now_ps
    span = int(setup.duration_ps) - start_ps
    records = []
    for index in range(1, windows + 1):
        setup.network.run(until_ps=start_ps + span * index // windows)
        records.append(record())
    spec.finish(setup)
    return records + [record()]


def _keys(telemetry: dict) -> dict:
    return {key: telemetry[key] for key in TELEMETRY_KEYS}


def _register_helpers(tmp_path) -> dict:
    """Register the helper runners; returns their scenario names."""
    names = {
        "quick": "test/quick",
        "crash_once": "test/crash-once",
        "crash_always": "test/crash-always",
        "boom": "test/boom",
    }
    sentinel = str(tmp_path / "crash-once.sentinel")
    scenarios.load_all()
    for fn, name in names.items():
        params = {"sentinel": sentinel} if fn == "crash_once" else {}
        spec = ScenarioSpec(
            name=name, runner=f"tests.serve_helpers:{fn}", params=params
        )
        if name in scenarios.names():
            continue
        scenarios.register(spec)
    return names


def _service_run(coro_fn, **knobs):
    """Run an async test body against a started service."""

    async def _run():
        service = JobService(**knobs)
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.close()

    return asyncio.run(_run())


async def _wait_done(events: asyncio.Queue, job_id: str) -> dict:
    while True:
        event = await asyncio.wait_for(events.get(), timeout=300)
        if event.get("event") == "done" and event.get("job") == job_id:
            return event


# ----------------------------------------------------------------------
# Protocol basics
# ----------------------------------------------------------------------
def test_protocol_encode_decode_round_trip():
    message = {"op": "submit", "scenario": "x", "params": {"a": 1}}
    line = encode(message)
    assert line.endswith("\n")
    assert decode(line) == message
    with pytest.raises(ProtocolError, match="not JSON"):
        decode("{nope")
    with pytest.raises(ProtocolError, match="JSON object"):
        decode("[1, 2]")
    assert ok_reply(x=1) == {"ok": True, "x": 1}
    assert error_reply("nope")["ok"] is False
    assert event_message("telemetry", job="j")["event"] == "telemetry"


# ----------------------------------------------------------------------
# Round-trips against the service core
# ----------------------------------------------------------------------
def test_submit_status_result_round_trip(tmp_path):
    names = _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        reply = await service.handle(
            {"op": "submit", "scenario": names["quick"], "params": {}},
            events=events,
        )
        assert reply["ok"] and reply["state"] == "queued"
        job_id = reply["job"]
        await _wait_done(events, job_id)
        status = await service.handle({"op": "status", "job": job_id})
        assert status["job"]["state"] == "done"
        result = await service.handle({"op": "result", "job": job_id})
        assert result["ok"]
        assert result["result"]["rows"] == {"value": ["1"]}
        listing = await service.handle({"op": "jobs"})
        assert [job["job"] for job in listing["jobs"]] == [job_id]
        return True

    assert _service_run(body, workers=1)


def test_submission_admission_errors(tmp_path):
    _register_helpers(tmp_path)

    async def body(service):
        reply = await service.handle({"op": "submit", "scenario": "nope"})
        assert not reply["ok"] and "registered scenarios" in reply["error"]
        assert "table2/rows" in reply["registered"]
        reply = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": {"bogus_knob": 1},
            }
        )
        assert not reply["ok"] and "unknown override" in reply["error"]
        reply = await service.handle({"op": "status", "job": "job-999"})
        assert not reply["ok"] and "no such job" in reply["error"]
        reply = await service.handle({"op": "bogus-op"})
        assert not reply["ok"] and "unknown op" in reply["error"]
        return True

    assert _service_run(body, workers=1)


def test_queue_saturation_refuses_not_drops(tmp_path):
    names = _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        # Occupy the single worker with a phased job...
        first = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": FAST_PHASED,
            },
            events=events,
        )
        assert first["ok"]
        await asyncio.sleep(0.3)  # let the worker dequeue it
        # ...fill the queue to its bound...
        second = await service.handle(
            {"op": "submit", "scenario": names["quick"]}, events=events
        )
        assert second["ok"]
        # ...and the next submission is refused, not enqueued.
        third = await service.handle({"op": "submit", "scenario": names["quick"]})
        assert not third["ok"] and "queue full" in third["error"]
        await _wait_done(events, first["job"])
        await _wait_done(events, second["job"])
        # Queue drained: submissions are admitted again.
        fourth = await service.handle(
            {"op": "submit", "scenario": names["quick"]}, events=events
        )
        assert fourth["ok"]
        await _wait_done(events, fourth["job"])
        return True

    assert _service_run(body, workers=1, queue_limit=1, windows=4)


def test_worker_crash_respawns_and_retries(tmp_path):
    names = _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        reply = await service.handle(
            {"op": "submit", "scenario": names["crash_once"]}, events=events
        )
        job_id = reply["job"]
        done = await _wait_done(events, job_id)
        assert done["state"] == "done"  # survived via retry
        status = await service.handle({"op": "status", "job": job_id})
        assert status["job"]["attempts"] == 1
        result = await service.handle({"op": "result", "job": job_id})
        assert result["result"]["rows"] == {"survived": ["True"]}
        # The pool is healthy afterwards: the respawned worker runs jobs.
        reply = await service.handle(
            {"op": "submit", "scenario": names["quick"]}, events=events
        )
        assert (await _wait_done(events, reply["job"]))["state"] == "done"
        return True

    assert _service_run(body, workers=1)


def test_worker_crashing_every_attempt_fails_the_job(tmp_path):
    names = _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        reply = await service.handle(
            {"op": "submit", "scenario": names["crash_always"]}, events=events
        )
        job_id = reply["job"]
        done = await _wait_done(events, job_id)
        assert done["state"] == "failed"
        status = await service.handle({"op": "status", "job": job_id})
        assert status["job"]["attempts"] == 2  # initial + one retry
        assert "worker crashed" in status["job"]["error"]
        result = await service.handle({"op": "result", "job": job_id})
        assert not result["ok"]
        return True

    assert _service_run(body, workers=1)


def test_job_exception_fails_without_retry(tmp_path):
    names = _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        reply = await service.handle(
            {"op": "submit", "scenario": names["boom"]}, events=events
        )
        job_id = reply["job"]
        done = await _wait_done(events, job_id)
        assert done["state"] == "failed"
        status = await service.handle({"op": "status", "job": job_id})
        assert status["job"]["attempts"] == 0  # a job error is not a crash
        assert "scripted job failure" in status["job"]["error"]
        return True

    assert _service_run(body, workers=1)


def test_cancel_queued_and_preempt_running(tmp_path):
    _register_helpers(tmp_path)

    async def body(service):
        events = asyncio.Queue()
        running = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": FAST_PHASED,
            },
            events=events,
        )
        queued = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": FAST_PHASED,
            },
            events=events,
        )
        # Cancel the queued job before any worker touches it.
        reply = await service.handle({"op": "cancel", "job": queued["job"]})
        assert reply["ok"] and reply["job"]["state"] == "cancelled"
        # Preempt the running job after its first telemetry window.
        while True:
            event = await asyncio.wait_for(events.get(), timeout=300)
            if (
                event.get("event") == "telemetry"
                and event.get("job") == running["job"]
            ):
                break
        reply = await service.handle({"op": "cancel", "job": running["job"]})
        assert reply["ok"]
        done = await _wait_done(events, running["job"])
        assert done["state"] == "preempted"
        status = await service.handle({"op": "status", "job": running["job"]})
        assert status["job"]["has_checkpoint"]
        preempted_at = status["job"]["last_telemetry"]["now_ps"]
        assert 0 < preempted_at < FAST_PHASED["duration_ps"]
        # Resume: the checkpoint finishes to the same result a straight
        # run produces.
        reply = await service.handle(
            {"op": "resume", "job": running["job"]}, events=events
        )
        assert reply["ok"]
        done = await _wait_done(events, running["job"])
        assert done["state"] == "done"
        resumed = await service.handle({"op": "result", "job": running["job"]})

        straight = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": FAST_PHASED,
            },
            events=events,
        )
        await _wait_done(events, straight["job"])
        reference = await service.handle({"op": "result", "job": straight["job"]})
        assert resumed["result"]["rows"] == reference["result"]["rows"]
        # The counts ride inside the checkpointed buses, so the resumed
        # job ends on the straight run's telemetry too.
        assert resumed["result"]["telemetry"] == reference["result"]["telemetry"]
        return True

    assert _service_run(body, workers=1, windows=4)


def test_phased_telemetry_matches_observed_run():
    reference = _observed_reference(windows=4)
    assert len(reference) == 5 and reference[0]["published"] > 0

    async def body(service):
        events = asyncio.Queue()
        job = await service.handle(
            {
                "op": "submit",
                "scenario": "microburst/event-driven",
                "params": FAST_PHASED,
            },
            events=events,
        )
        pushed = []
        while True:
            event = await asyncio.wait_for(events.get(), timeout=300)
            if event.get("event") == "telemetry":
                pushed.append(_keys(event["telemetry"]))
            elif event.get("event") == "done":
                assert event["state"] == "done"
                break
        result = await service.handle({"op": "result", "job": job["job"]})
        final = _keys(result["result"]["telemetry"])
        return pushed + [final]

    assert _service_run(body, workers=1, windows=4) == reference


# ----------------------------------------------------------------------
# The full stack: socket server + blocking client
# ----------------------------------------------------------------------
class _EchoService:
    """Just enough of :class:`JobService` for :func:`serve_socket`."""

    closing = False

    async def handle(self, request, events):
        if request.get("op") == "shutdown":
            self.closing = True
        return ok_reply(op=request.get("op"))


def test_socket_path_appears_only_once_listening(tmp_path, monkeypatch):
    from repro.serve.server import serve_socket

    # Widen the bind → listen window: a server that published its path
    # at bind() would refuse a client connecting on first sight of it.
    real_listen = socket.socket.listen

    def slow_listen(sock, *args):
        time.sleep(0.3)
        return real_listen(sock, *args)

    monkeypatch.setattr(socket.socket, "listen", slow_listen)
    path = str(tmp_path / "serve.sock")
    server = threading.Thread(
        target=asyncio.run,
        args=(serve_socket(_EchoService(), path),),
        daemon=True,
    )
    server.start()
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.001)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(path)  # refused if the path preceded listen()
            client.sendall(encode({"op": "shutdown"}).encode())
            reply = decode(client.makefile().readline())
        assert reply == {"ok": True, "op": "shutdown"}
    finally:
        server.join(timeout=30)
    assert not server.is_alive()
    assert os.listdir(tmp_path) == []


def test_socket_server_end_to_end(tmp_path):
    from repro.serve.client import ServiceClient

    socket_path = str(tmp_path / "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            "1",
            "--windows",
            "4",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 60
        while not os.path.exists(socket_path):
            assert proc.poll() is None, proc.stderr.read()
            assert time.time() < deadline, "socket never appeared"
            time.sleep(0.1)
        with ServiceClient(socket_path) as client:
            hello = client.expect("hello")
            assert hello["protocol"] == 1 and hello["workers"] == 1
            catalog = client.expect("scenarios", tag="paper")
            assert any(
                item["name"] == "microburst/event-driven"
                for item in catalog["scenarios"]
            )
            reply = client.expect(
                "submit",
                scenario="microburst/event-driven",
                params=FAST_PHASED,
            )
            job_id = reply["job"]
            assert client.wait(job_id) == "done"
            telemetry = client.telemetry(job_id)
            assert len(telemetry) == 4
            assert telemetry[-1]["progress"] == 1.0
            assert telemetry[0]["now_ps"] < telemetry[-1]["now_ps"]
            result = client.expect("result", job=job_id)
            assert "result" in result["result"]["rows"] or result["result"]["rows"]
            client.expect("shutdown")
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_stdio_server_end_to_end():
    """The default mode: requests on stdin, one reply line each on stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    requests = [
        {"op": "hello"},
        {"op": "scenarios", "tag": "paper"},
        {"op": "shutdown"},
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "1"],
        input="".join(encode(request) for request in requests),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    hello, catalog, shutdown = [decode(line) for line in proc.stdout.splitlines()]
    assert hello["ok"] and hello["protocol"] == 1 and hello["workers"] == 1
    assert hello["scenarios"] > len(catalog["scenarios"]) > 0
    assert catalog["ok"] and any(
        item["name"] == "microburst/event-driven" for item in catalog["scenarios"]
    )
    assert all("paper" in item["tags"] for item in catalog["scenarios"])
    assert shutdown == {"ok": True, "shutdown": True}
