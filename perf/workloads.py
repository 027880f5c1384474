"""The seven workloads, each driven through ``repro``'s public entry points.

A workload is one object per child process::

    w.setup()        # inside setup_s: build topology, load, boot ...
    w.steps()        # the timed region, as slices the child times one by one
                     # (traced_steps() in a traced child)
    w.finish()       # untimed: count, check, digest
    w.close()        # always: stop whatever set-up started (idempotent)
    w.counts()       # traced child only: per-layer counts of this run
    w.extras()       # traced child only: rows only this workload can fill

Sizes are fixed; only the seed varies the input.  ``scale`` shrinks a
workload for the smoke tests and is never used for a measurement.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import functools
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

H0_IP = 0x0A00_0001
H1_IP = 0x0A00_0002

#: Slices a simulation's timed region is cut into (by simulated time), so
#: the host-speed reference is sampled every ~20 ms of a 2 s run.
SLICES = 100


def sim_slices(advance, total_ps: int, finish) -> List[Any]:
    """``advance(t)`` to SLICES - 1 equal shares of ``total_ps``, then
    ``finish()``.  Same events in the same order as one call would run."""
    steps = [
        functools.partial(advance, total_ps * i // SLICES) for i in range(1, SLICES)
    ]
    steps.append(finish)
    return steps


def digest_of(obj: Any) -> str:
    """SHA-256 of a JSON-able simulated observable."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


class LayerCounts:
    """Per-layer counts read from switches' public stats after a run."""

    def __init__(self) -> None:
        self.events = 0
        self.pkts = 0
        self.hits = self.misses = self.uncacheable = self.invalidations = 0
        self.fused = self.fallbacks = 0
        self.elided = self.processed = 0
        self.drops = self.published = 0
        self.windows = self.boundary = self.stalls = 0
        self.retries = 0

    def add_switches(self, switches: Iterable[Any]) -> None:
        for switch in switches:
            cache = switch.flow_cache
            if cache is not None:
                self.hits += cache.stats.hits
                self.misses += cache.stats.misses
                self.uncacheable += cache.stats.uncacheable
                self.invalidations += cache.stats.invalidations
            fastpath = switch.flow_fastpath
            if fastpath is not None:
                self.fused += fastpath.stats.fused
                self.fallbacks += fastpath.stats.fallbacks_total
            for attr in ("ingress_pipeline", "egress_pipeline", "pipeline"):
                pipeline = getattr(switch, attr, None)
                if pipeline is not None:
                    self.elided += pipeline.walks_elided
                    self.processed += pipeline.packets_processed
            self.drops += switch.tm.drops_overflow
            self.published += switch.bus.published_total()

    @classmethod
    def of(cls, switches: Iterable[Any], events: int, pkts: int) -> Dict[str, float]:
        """The rows for one network that ran ``events`` and delivered ``pkts``."""
        acc = cls()
        acc.events, acc.pkts = events, pkts
        acc.add_switches(switches)
        return acc.result()

    def add_shard_stats(self, stats: Any) -> None:
        self.windows += stats.windows
        self.boundary += stats.total("boundary_tx")
        self.stalls += stats.total("stall_windows")

    def result(self) -> Dict[str, float]:
        def per(total: float, base: float) -> float:
            return total / base if base else 0.0

        lookups = self.hits + self.misses + self.uncacheable
        return {
            "sim.kernel.events_per_pkt": per(self.events, self.pkts),
            "pisa.flowcache.hit_ratio": per(self.hits, lookups),
            "pisa.flowcache.misses_per_pkt": per(self.misses, self.pkts),
            "pisa.flowcache.uncacheable_per_pkt": per(self.uncacheable, self.pkts),
            "pisa.flowcache.invalidations": self.invalidations,
            "pisa.fastpath.fuse_ratio": per(self.fused, self.fused + self.fallbacks),
            "pisa.fastpath.fallbacks_per_pkt": per(self.fallbacks, self.pkts),
            "pisa.pipeline.walks_elided_ratio": per(self.elided, self.processed),
            "tm.drops": self.drops,
            "arch.bus.published_per_pkt": per(self.published, self.pkts),
            "sim.shard.windows": self.windows,
            "sim.shard.boundary_pkts": self.boundary,
            "sim.shard.stall_windows": self.stalls,
            "serve.retries": self.retries,
        }


class Workload:
    """Base: holds the inputs and the verdict fields ``finish`` fills."""

    name = ""

    def __init__(self, seed: int, scale: float, tmp: str) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        #: Raw wall of the timed region; the child fills it in.
        self.wall_s = 0.0
        #: Reasons this rep is invalid; any entry fails every operation.
        self.problems: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def steps(self) -> List[Any]:
        """The timed region as zero-argument calls, run in order."""
        raise NotImplementedError

    def traced_steps(self) -> List[Any]:
        # Most layers keep public stats that are read after the run, so
        # tracing from perf/ needs nothing inside the timed region.
        return self.steps()

    def finish(self) -> Dict[str, Any]:
        """``{"ops", "attempted", "failed", "digest"[, "latencies_ms"]}``."""
        raise NotImplementedError

    def pin_digest(self, digest: str) -> str:
        """What ``expected.json`` should hold for this run's ``digest``."""
        return digest

    def counts(self) -> Dict[str, float]:
        raise NotImplementedError

    def extras(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _fingerprint_records(recorders: Dict[str, Any]):
    from repro.sim.shard import behavior_fingerprint

    return behavior_fingerprint(
        {name: list(recorder.arrivals) for name, recorder in recorders.items()}
    )


# ---------------------------------------------------------------------------
# microburst_sume
# ---------------------------------------------------------------------------


class MicroburstSume(Workload):
    name = "microburst_sume"

    def setup(self) -> None:
        from repro.experiments import microburst_exp
        from repro.sim.shard import attach_recorders
        from repro.sim.units import MILLISECONDS

        self._finish = microburst_exp.finish_event_driven
        self.state = microburst_exp.prepare_event_driven(
            duration_ps=max(1, round(50 * self.scale)) * MILLISECONDS,
            background_senders=3,
            seed=self.seed,
        )
        self.recorders = attach_recorders(self.state.network)

    def steps(self) -> List[Any]:
        network = self.state.network

        def finish() -> None:
            self.result = self._finish(self.state)

        return sim_slices(
            lambda t: network.run(until_ps=t), self.state.duration_ps, finish
        )

    def finish(self) -> Dict[str, Any]:
        from repro.sim.shard import fingerprint_digest

        fingerprint = _fingerprint_records(self.recorders)
        self.delivered = sum(packets for packets, _, _ in fingerprint.values())
        if not self.delivered:
            self.problems.append("no packet reached the receiver")
        # The run stops at a cutoff with packets legitimately in flight,
        # so delivery is the count, not a pass/fail: the digest decides.
        return {
            "ops": self.delivered,
            "attempted": max(1, self.delivered),
            "failed": 0,
            "digest": digest_of(
                [fingerprint_digest(fingerprint), dataclasses.asdict(self.result)]
            ),
        }

    def counts(self) -> Dict[str, float]:
        network = self.state.network
        return LayerCounts.of(
            network.switches.values(), network.sim.events_executed, self.delivered
        )


# ---------------------------------------------------------------------------
# fabric_zipf / fabric_sharded
# ---------------------------------------------------------------------------


def fabric_scenario(workload: str, seed: int, scale: float):
    from repro.experiments.shard_exp import ShardScenario

    knobs: Dict[str, Any] = dict(
        topology="fattree",
        k=8 if scale >= 0.5 else 4,
        workload=workload,
        packets_per_sender=max(2, round(16 * scale)),
        seed=seed,
    )
    if workload == "zipf":
        knobs["waves"] = 3
    else:
        # Incast ignores the scenario seed, so the seed picks the one
        # frame length every packet shares — still fingerprint-safe
        # (docs/SCALING.md: contenders of a queue must be interchangeable).
        knobs["waves"] = 4
        knobs["payload_len"] = 384 + 8 * (seed % 64)
    return ShardScenario(**knobs)


class FabricZipf(Workload):
    name = "fabric_zipf"

    def setup(self) -> None:
        from repro.experiments.shard_exp import build_shard, expected_packets

        self.scenario = fabric_scenario("zipf", self.seed, self.scale)
        self.expected = expected_packets(self.scenario)
        self.runtime = build_shard(0, self.scenario, 1)

    def steps(self) -> List[Any]:
        sc, sim = self.scenario, self.runtime.sim
        last_send_ps = sc.start_ps + sc.waves * sc.packets_per_sender * sc.send_gap_ps
        return sim_slices(sim.run_until, last_send_ps, sim.run)

    def finish(self) -> Dict[str, Any]:
        from repro.sim.shard import fingerprint_digest

        self.events = self.runtime.sim.events_executed
        fingerprint = _fingerprint_records(self.runtime.recorders)
        self.delivered = sum(packets for packets, _, _ in fingerprint.values())
        return {
            "ops": self.delivered,
            "attempted": self.expected,
            "failed": self.expected - self.delivered,
            "digest": fingerprint_digest(fingerprint),
        }

    def counts(self) -> Dict[str, float]:
        return LayerCounts.of(
            self.runtime.network.switches.values(), self.events, self.delivered
        )


class FabricSharded(Workload):
    name = "fabric_sharded"
    SHARDS = 2

    def setup(self) -> None:
        from repro.experiments import shard_exp

        self._run_sharded = shard_exp.run_sharded
        self.scenario = fabric_scenario("incast", self.seed, self.scale)
        self.expected = shard_exp.expected_packets(self.scenario)

    def steps(self) -> List[Any]:
        def run() -> None:
            self.result = self._run_sharded(
                self.scenario, shards=self.SHARDS, mode="process"
            )

        return [run]

    def finish(self) -> Dict[str, Any]:
        self.delivered = self.result.total_received()
        return {
            "ops": self.delivered,
            "attempted": self.expected,
            "failed": self.expected - self.delivered,
            "digest": self.result.digest,
        }

    def pin_digest(self, digest: str) -> str:
        """The single-process run's digest: sharding must not change it."""
        from repro.experiments.shard_exp import run_serial

        return run_serial(self.scenario).digest

    def _inline(self):
        """The same windows without processes, keeping the shard runtimes
        so their switches' stats can be read."""
        from repro.experiments.shard_exp import build_shard, scenario_partition
        from repro.sim.shard import ShardedSimulator

        runtimes = []

        def keeping_builder(shard_id, scenario, shards):
            runtime = build_shard(shard_id, scenario, shards)
            runtimes.append(runtime)
            return runtime

        started = perf_counter()
        result = ShardedSimulator(
            scenario_partition(self.scenario, self.SHARDS),
            keeping_builder,
            builder_args=(self.scenario, self.SHARDS),
            mode="inline",
        ).run()
        self.inline_s = perf_counter() - started
        if result.digest != self.result.digest:
            self.problems.append("inline digest differs from the process run's")
        return result, runtimes

    def counts(self) -> Dict[str, float]:
        result, runtimes = self._inline()
        acc = LayerCounts()
        acc.events = result.stats.total("events_executed")
        acc.pkts = self.delivered
        for runtime in runtimes:
            acc.add_switches(runtime.network.switches.values())
        acc.add_shard_stats(self.result.stats)
        return acc.result()

    def extras(self) -> Dict[str, float]:
        from repro.experiments.shard_exp import run_serial

        started = perf_counter()
        serial = run_serial(self.scenario)
        serial_s = perf_counter() - started
        if serial.digest != self.result.digest:
            self.problems.append("sharded digest differs from the serial run's")
        walls = [counter.wall_s for counter in self.result.stats.shards]
        return {
            "sim.shard.compute_share": max(walls) / self.wall_s,
            "sim.shard.wait_share": 1.0 - statistics.fmean(walls) / self.wall_s,
            "sim.shard.inline_s": self.inline_s,
            "sim.shard.speedup": serial_s / self.wall_s,
        }


# ---------------------------------------------------------------------------
# chain_paced / chain_churn
# ---------------------------------------------------------------------------


class _Chain(Workload):
    PACKETS = 0
    #: Packets per control-plane write; 0 = a read-only run.
    WRITE_EVERY = 0
    FLOWS = 8
    GAP_PS = 40_000_000

    def _build(self):
        from repro.apps.l3fwd import L3Router
        from repro.experiments.factories import make_baseline_switch
        from repro.net.topology import build_linear
        from repro.packet.builder import make_udp_packet
        from repro.sim.rng import SeededRng

        count = max(200, int(self.PACKETS * self.scale))
        network = build_linear(make_baseline_switch(), switch_count=3)
        programs = []
        for name in sorted(network.switches):
            program = L3Router()
            program.install_host_routes({H0_IP: 0, H1_IP: 1})
            network.switches[name].load_program(program)
            programs.append(program)
        sim = network.sim
        arrivals: List[tuple] = []
        # UDP is the last header; the port tells the eight flows apart.
        network.hosts["h1"].add_sink(
            lambda pkt: arrivals.append(
                (sim.now_ps, pkt.total_len, pkt.headers[-1].sport)
            )
        )
        rng = SeededRng(self.seed, "perf/chain")
        send = network.hosts["h0"].send
        for i in range(count):
            t = 1_000 + i * self.GAP_PS
            sim.call_at(
                t,
                send,
                make_udp_packet(
                    H0_IP,
                    H1_IP,
                    sport=7_000 + rng.randint(0, self.FLOWS - 1),
                    payload_len=22,  # 64 B frames: per-packet cost dominates
                    ts_ps=t,
                ),
            )
        if self.WRITE_EVERY:
            # Re-installing H1's next hop changes nothing a packet sees
            # but bumps the table generation, as any real write would.
            for j in range(count // self.WRITE_EVERY):
                t = 1_000 + j * self.WRITE_EVERY * self.GAP_PS + self.GAP_PS // 2
                sim.call_at(t, programs[rng.randint(0, 2)].add_next_hop, 1, 1)
        return network, programs, arrivals, count

    def setup(self) -> None:
        self.network, self.programs, self.arrivals, self.expected = self._build()

    def steps(self) -> List[Any]:
        network = self.network
        return sim_slices(
            lambda t: network.run(until_ps=t), self.expected * self.GAP_PS, network.run
        )

    def finish(self) -> Dict[str, Any]:
        self.delivered = len(self.arrivals)
        sha = hashlib.sha256()
        for arrival in self.arrivals:
            sha.update(b"%d:%d:%d\n" % arrival)
        counters = [list(p.next_hop_stats()) for p in self.programs]
        return {
            "ops": self.delivered,
            "attempted": self.expected,
            "failed": self.expected - self.delivered,
            "digest": digest_of([sha.hexdigest(), counters]),
        }

    def counts(self) -> Dict[str, float]:
        return LayerCounts.of(
            self.network.switches.values(),
            self.network.sim.events_executed,
            self.delivered,
        )


class ChainPaced(_Chain):
    name = "chain_paced"
    PACKETS = 60_000

    def extras(self) -> Dict[str, float]:
        from repro.obs import EventCounters, observing

        with observing(EventCounters()):
            network, _programs, arrivals, count = self._build()
        started = perf_counter()
        network.run()
        observed_s = perf_counter() - started
        if len(arrivals) != count:
            self.problems.append("observed run lost packets")
        return {
            "obs.observer_cost_ratio": (count / observed_s)
            / (self.delivered / self.wall_s)
        }


class ChainChurn(_Chain):
    name = "chain_churn"
    PACKETS = 36_000
    WRITE_EVERY = 100


# ---------------------------------------------------------------------------
# chaos_grid
# ---------------------------------------------------------------------------

#: Cell-record keys that are simulated observables ("cache"/"fastpath"
#: are accelerator statistics a perf change may legitimately move).
_CELL_SIM_KEYS = (
    "plan", "app", "seed", "arms", "ok", "violations", "delivered", "faults",
    "fault_kinds", "reconvergence_ps", "max_gap_ps", "fingerprint",
    "conservation", "table_updates",
)

#: run_forked_cells' four arms, in its build order.
_ARMS = (
    ("on", dict(flow_cache=True, fastpath=False)),
    ("off", dict(flow_cache=False, compile=False)),
    ("compiled", dict(flow_cache=False, compile=True)),
    ("fast", dict(flow_cache=True, fastpath=True)),
)
_ARM_PAIRS = (("on", "off"), ("compiled", "off"), ("fast", "on"))


class ChaosGrid(Workload):
    name = "chaos_grid"

    def setup(self) -> None:
        from repro.faults import chaos

        self._chaos = chaos
        self.plans = chaos.PLAN_NAMES[: max(2, round(7 * self.scale))]
        self.apps = chaos.APP_NAMES[: max(2, round(5 * self.scale))]
        self.records: Optional[List[Dict[str, Any]]] = None

    def steps(self) -> List[Any]:
        # One call per app is run_forked_cells' own outer loop: the same
        # builds and forks, and a slice boundary every ~1.2 s.
        by_app: Dict[str, List[Dict[str, Any]]] = {}

        def run_app(app: str) -> None:
            by_app[app] = self._chaos.run_forked_cells(
                self.plans, [app], (self.seed,), compile_arm=True, fastpath_arm=True
            )

        def run_last_app() -> None:
            run_app(self.apps[-1])
            # run_grid order: plan-major.
            self.records = [
                by_app[app][index]
                for index in range(len(self.plans))
                for app in self.apps
            ]

        return [functools.partial(run_app, app) for app in self.apps[:-1]] + [
            run_last_app
        ]

    def traced_steps(self) -> List[Any]:
        return [self.run_traced]

    def run_traced(self) -> None:
        """run_forked_cells' loop, from its three public steps, timed."""
        from repro.faults.scenarios import build_scenario

        chaos = self._chaos
        spans = {"build": 0.0, "fork": 0.0, "run": 0.0}

        def timed(key, fn, *args, **kwargs):
            started = perf_counter()
            out = fn(*args, **kwargs)
            spans[key] += perf_counter() - started
            return out

        started = perf_counter()
        acc = LayerCounts()
        cells = bad = 0
        for app in self.apps:
            bases = {
                arm: timed("build", build_scenario, app, self.seed, **knobs)
                for arm, knobs in _ARMS
            }
            for plan in self.plans:
                out = {}
                for arm, _knobs in _ARMS:
                    forked = timed("fork", chaos.fork_scenario, bases[arm])
                    out[arm] = timed(
                        "run", chaos.run_instance_on, forked, plan, self.seed
                    )
                    acc.events += forked.network.sim.events_executed
                    acc.pkts += out[arm]["delivered"]
                    acc.add_switches(forked.network.switches.values())
                cells += 1
                if any(out[arm]["violations"] for arm in out) or any(
                    out[a]["fingerprint"] != out[b]["fingerprint"]
                    for a, b in _ARM_PAIRS
                ):
                    bad += 1
        self.traced = (acc, spans, cells, bad, perf_counter() - started)

    def finish(self) -> Dict[str, Any]:
        failed = 0
        if self.records is None:
            # The traced loop yields verdicts, not records: the records to
            # digest come from the from-scratch grid, which must agree.
            failed = self.traced[3]
            started = perf_counter()
            self.records = self._chaos.run_grid(
                self.plans, self.apps, (self.seed,),
                compile_arm=True, fastpath_arm=True,
            )
            self.fresh_s = perf_counter() - started
        failed = max(failed, sum(1 for r in self.records if r["violations"]))
        return {
            "ops": len(self.records),
            "attempted": len(self.records),
            "failed": failed,
            "digest": digest_of(
                [{key: r[key] for key in _CELL_SIM_KEYS} for r in self.records]
            ),
        }

    def counts(self) -> Dict[str, float]:
        return self.traced[0].result()

    def extras(self) -> Dict[str, float]:
        _acc, spans, _cells, _bad, forked_s = self.traced
        return {
            "faults.build_s": spans["build"],
            "faults.fork_s": spans["fork"],
            "faults.run_s": spans["run"],
            "faults.fork_vs_fresh": self.fresh_s / forked_s,
        }


# ---------------------------------------------------------------------------
# job_storm
# ---------------------------------------------------------------------------


class _Client:
    """One asyncio connection speaking ``repro.serve.protocol``.

    Replies come back in request order on a connection, so acks match
    requests FIFO; pushed events interleave and are told apart by shape.
    """

    def __init__(self, reader, writer) -> None:
        from repro.serve.protocol import decode, encode

        self._decode, self._encode = decode, encode
        self.reader, self.writer = reader, writer
        self._acks: collections.deque = collections.deque()
        self.done: Dict[str, tuple] = {}  # job id -> (host time, state)
        self.retries = 0
        self._wake = asyncio.Event()
        self._pump = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = perf_counter()
            message = self._decode(line.decode("utf-8"))
            event = message.get("event")
            if event is None:
                self._acks.popleft().set_result((now, message))
            elif event == "done":
                self.done[message["job"]] = (now, message["state"])
                self._wake.set()
            elif event == "retry":
                self.retries += 1

    def send(self, **message: Any) -> "asyncio.Future":
        """Write one request; the future resolves to (ack time, reply)."""
        ack = asyncio.get_running_loop().create_future()
        self._acks.append(ack)
        self.writer.write(self._encode(message).encode("utf-8"))
        return ack

    async def request(self, **message: Any) -> Dict[str, Any]:
        ack = self.send(**message)
        await self.writer.drain()
        return (await ack)[1]

    async def wait_done(self, count: int) -> None:
        while len(self.done) < count:
            self._wake.clear()
            await self._wake.wait()

    async def close(self) -> None:
        self.writer.close()
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass


class JobStorm(Workload):
    name = "job_storm"
    SCENARIO = "microburst/event-driven"
    DURATION_PS = 1_000_000_000  # 1 ms simulated: ~45 ms of host work
    OPEN_RATE = 8.0  # jobs/s, evenly spaced: ~20% utilisation of 2 workers
    MAX_LATE_MS = 10.0

    def __init__(self, seed: int, scale: float, tmp: str) -> None:
        super().__init__(seed, scale, tmp)
        self.warmup = max(2, round(8 * scale))
        self.open_jobs = max(4, round(32 * scale))
        self.batch_jobs = max(4, round(64 * scale))
        self.server: Optional[subprocess.Popen] = None
        self.client: Optional[_Client] = None
        self.loop = asyncio.new_event_loop()

    def _params(self, index: int) -> Dict[str, int]:
        return {"duration_ps": self.DURATION_PS, "seed": self.seed + index}

    def _submit(self, index: int) -> "asyncio.Future":
        return self.client.send(
            op="submit", scenario=self.SCENARIO, params=self._params(index)
        )

    def setup(self) -> None:
        asyncio.set_event_loop(self.loop)
        # A relative path keeps the socket name under the 108-byte limit
        # however deep the checkout is.
        socket_path = os.path.relpath(os.path.join(self.tmp, "serve.sock"))
        started = perf_counter()
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket_path, "--workers", "2",
                "--queue-limit", "256", "--windows", "2",
            ],
            # Not our stdout: run.py reads that pipe to EOF, and the
            # service's workers would hold it open if they outlived us.
            stdout=subprocess.DEVNULL,
        )
        self.loop.run_until_complete(self._boot(socket_path, started))

    async def _boot(self, socket_path: str, started: float) -> None:
        deadline = started + 30.0
        while True:
            # The path appears at bind(), a moment before listen(): a
            # refused connection is as much "not up yet" as a missing file.
            try:
                reader, writer = await asyncio.open_unix_connection(socket_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.server.poll() is not None or perf_counter() > deadline:
                    raise RuntimeError("job service did not come up") from None
                await asyncio.sleep(0.002)
        self.client = _Client(reader, writer)
        hello = await self.client.request(op="hello")
        self.boot_s = perf_counter() - started
        if not hello.get("ok"):
            raise RuntimeError(f"hello refused: {hello}")
        # Workers are long-lived, so a user's jobs meet warm ones.
        acks = [self._submit(1_000 + i) for i in range(self.warmup)]
        await self.client.writer.drain()
        await asyncio.gather(*acks)
        await self.client.wait_done(self.warmup)
        self.client.done.clear()

    def steps(self) -> List[Any]:
        return [lambda: self.loop.run_until_complete(self._storm())]

    async def _storm(self) -> None:
        client = self.client
        # Phase A, open loop: a job is due every 1/rate seconds whatever
        # the service is doing, and its latency counts from the due time.
        start = perf_counter() + 0.02
        self.due: List[float] = []
        self.late_ms: List[float] = []
        self.sent: List[float] = []
        self.open_acks = []
        for i in range(self.open_jobs):
            due = start + i / self.OPEN_RATE
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = perf_counter()
            self.due.append(due)
            self.late_ms.append((now - due) * 1e3)
            self.sent.append(now)
            self.open_acks.append(self._submit(i))
            await client.writer.drain()
        await client.wait_done(self.open_jobs)
        # Phase B, batch: everything at once, time to drain.
        batch_start = perf_counter()
        self.batch_acks = [
            self._submit(100 + i) for i in range(self.batch_jobs)
        ]
        await client.writer.drain()
        await client.wait_done(self.open_jobs + self.batch_jobs)
        self.open_acks = await asyncio.gather(*self.open_acks)
        self.batch_acks = await asyncio.gather(*self.batch_acks)
        batch_ids = {reply.get("job") for _t, reply in self.batch_acks}
        finished = sorted(
            t for job, (t, _state) in client.done.items() if job in batch_ids
        )
        self.batch_drain_s = finished[-1] - batch_start
        # The rate is the steady one, not jobs / drain time: with both
        # workers busy, the median time in which two more jobs complete.
        # One slow spell of the host stretches the drain time by its full
        # length (20% spread between reps) and the median not at all (10%).
        pairs = [b - a for a, b in zip(finished, finished[2:])][::2]
        self.batch_s = self.batch_jobs * statistics.median(pairs) / 2.0

    def finish(self) -> Dict[str, Any]:
        return self.loop.run_until_complete(self._collect())

    async def _collect(self) -> Dict[str, Any]:
        client = self.client
        acks = list(self.open_acks) + list(self.batch_acks)
        rows = []
        failed = 0
        for _t, reply in acks:
            job = reply.get("job")
            state = client.done.get(job, (0.0, "refused"))[1]
            result = await client.request(op="result", job=job) if job else {}
            if state != "done" or not result.get("ok"):
                failed += 1
                rows.append([state])
                continue
            final = result["result"]["telemetry"]
            # Rows, the simulated clock and what the program's handlers
            # saw; the kernel's own event counts may change with perf work.
            rows.append(
                [
                    result["result"]["rows"],
                    final["now_ps"], final["handled"], final["dropped"],
                ]
            )
        self.latencies_ms = [
            (client.done[reply["job"]][0] - due) * 1e3
            for (_t, reply), due in zip(self.open_acks, self.due)
            if reply.get("job") in client.done
        ]
        self.admit_ms = [
            (t - sent) * 1e3 for (t, _reply), sent in zip(self.open_acks, self.sent)
        ]
        self.retries = client.retries
        self.gen_late_ms = percentile(self.late_ms, 0.9)
        if self.gen_late_ms > self.MAX_LATE_MS:
            self.problems.append(
                f"generator ran {self.gen_late_ms:.1f} ms late (p90); "
                "the open-loop latencies are not valid"
            )
        return {
            "ops": self.batch_jobs,
            "ops_wall_s": self.batch_s,
            "attempted": len(acks),
            "failed": failed,
            "digest": digest_of(rows),
            "latencies_ms": self.latencies_ms,
        }

    def close(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(self._shutdown())
            self.client = None
        elif self.server is not None:
            # Never got a connection to ask nicely.  SIGINT lets asyncio.run
            # unwind and stop the pool; SIGKILL would orphan the workers
            # (each holds both ends of its pipe, so it never sees EOF).
            self.server.send_signal(signal.SIGINT)
        if self.server is not None:
            try:
                self.server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
        self.loop.close()

    async def _shutdown(self) -> None:
        try:
            await asyncio.wait_for(self.client.request(op="shutdown"), 5)
        except (OSError, asyncio.TimeoutError):
            self.server.send_signal(signal.SIGINT)
        await self.client.close()

    def _direct(self):
        """The open-loop jobs again, run in this process without a service."""
        import repro.experiments.microburst_exp  # noqa: F401  registers the spec
        from repro.scenarios import resolve

        acc = LayerCounts()
        walls_ms = []
        for i in range(self.open_jobs):
            spec = resolve(self.SCENARIO, **self._params(i))
            started = perf_counter()
            setup = spec.build()
            spec.finish(setup)
            walls_ms.append((perf_counter() - started) * 1e3)
            network = setup.network
            acc.events += network.sim.events_executed
            acc.pkts += network.hosts["rx0"].received_packets
            acc.add_switches(network.switches.values())
        return acc, walls_ms

    def counts(self) -> Dict[str, float]:
        acc, self.direct_ms = self._direct()
        acc.retries = self.retries
        return acc.result()

    def extras(self) -> Dict[str, float]:
        return {
            "serve.batch_drain_s": self.batch_drain_s,
            "serve.boot_s": self.boot_s,
            "serve.admit_ms": statistics.median(self.admit_ms),
            "serve.overhead_ms": statistics.median(self.latencies_ms)
            - statistics.median(self.direct_ms),
            "serve.gen_late_ms": self.gen_late_ms,
        }


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        MicroburstSume, FabricZipf, FabricSharded, ChainPaced, ChainChurn,
        ChaosGrid, JobStorm,
    )
}
