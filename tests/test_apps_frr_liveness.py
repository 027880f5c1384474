"""Unit tests for fast re-route and liveness monitoring."""

import pytest

from app_harness import H0_IP, H1_IP, single_switch

from repro.apps.frr import FastRerouteProgram, StaticRouteProgram
from repro.apps.liveness import LivenessMonitor
from repro.arch.events import Event, EventType
from repro.arch.program import ProgramContext
from repro.packet.builder import make_liveness_echo, make_udp_packet
from repro.packet.headers import LivenessEcho
from repro.pisa.metadata import StandardMetadata
from repro.sim.units import MICROSECONDS

from tests.test_checkpoint import trace_digest


class FakeCtx(ProgramContext):
    def __init__(self):
        self.generated = []
        self.notifications = []
        self._now = 0

    @property
    def now_ps(self):
        return self._now

    def configure_timer(self, timer_id, period_ps):
        pass

    def generate_packet(self, pkt):
        self.generated.append(pkt)

    def notify_control_plane(self, message):
        self.notifications.append(message)


class TestFastReroute:
    def test_protected_route_validation(self):
        frr = FastRerouteProgram()
        with pytest.raises(ValueError):
            frr.install_protected_route(1, primary=2, backup=2)

    def test_link_down_flips_affected_routes_only(self):
        frr = FastRerouteProgram()
        frr.install_protected_route(0xA, primary=1, backup=2)
        frr.install_protected_route(0xB, primary=3, backup=2)
        ctx = FakeCtx()
        frr.on_link_status(
            ctx, Event(EventType.LINK_STATUS, 0, meta={"port": 1, "up": 0})
        )
        assert frr.routes[0xA] == 2  # failed over
        assert frr.routes[0xB] == 3  # untouched
        assert len(frr.failovers) == 1
        assert frr.failovers[0].rerouted_destinations == 1

    def test_link_up_reverts(self):
        frr = FastRerouteProgram()
        frr.install_protected_route(0xA, primary=1, backup=2)
        ctx = FakeCtx()
        frr.on_link_status(ctx, Event(EventType.LINK_STATUS, 0, meta={"port": 1, "up": 0}))
        frr.on_link_status(ctx, Event(EventType.LINK_STATUS, 0, meta={"port": 1, "up": 1}))
        assert frr.routes[0xA] == 1
        assert len(frr.reverts) == 1

    def test_unprotected_destination_stays_on_dead_port(self):
        frr = FastRerouteProgram()
        frr.install_route(0xC, 1)  # no backup
        ctx = FakeCtx()
        frr.on_link_status(ctx, Event(EventType.LINK_STATUS, 0, meta={"port": 1, "up": 0}))
        assert frr.routes[0xC] == 1

    def test_end_to_end_failover_on_switch(self):
        frr = FastRerouteProgram()
        network, switch, sink = single_switch(frr, install_routes=False)
        frr.install_protected_route(H1_IP, primary=1, backup=0)
        frr.install_route(H0_IP, 0)
        switch.set_link_status(1, False)
        network.run()
        assert frr.routes[H1_IP] == 0

    def test_static_program_only_changes_via_control(self):
        static = StaticRouteProgram()
        static.install_routes({0xA: 1})
        assert static.handler_for(EventType.LINK_STATUS) is None
        static.control_update(0xA, 2)
        assert static.routes[0xA] == 2
        assert static.control_updates == 1


class TestLiveness:
    def make(self, **kwargs):
        defaults = dict(
            switch_id=1, neighbor_ports=[0], period_ps=10 * MICROSECONDS,
            misses_allowed=3, monitor_port=1,
        )
        defaults.update(kwargs)
        return LivenessMonitor(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            LivenessMonitor(switch_id=1, neighbor_ports=[])
        with pytest.raises(ValueError):
            LivenessMonitor(switch_id=1, neighbor_ports=[0], misses_allowed=0)

    def test_timer_sends_requests(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        assert monitor.requests_sent == 1
        echo = ctx.generated[0].require(LivenessEcho)
        assert echo.kind == LivenessEcho.KIND_REQUEST
        assert ctx.generated[0].meta["probe_out_port"] == 0

    def test_request_bounced_as_reply(self):
        monitor = self.make()
        ctx = FakeCtx()
        request = make_liveness_echo(
            LivenessEcho.KIND_REQUEST, origin=2, target=0, nonce=7
        )
        meta = StandardMetadata(ingress_port=0)
        monitor.ingress(ctx, request, meta)
        assert meta.egress_spec == 0  # bounced back out the arrival port
        echo = request.require(LivenessEcho)
        assert echo.kind == LivenessEcho.KIND_REPLY
        assert monitor.replies_sent == 1

    def test_reply_refreshes_deadline(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 5 * MICROSECONDS
        reply = make_liveness_echo(LivenessEcho.KIND_REPLY, origin=2, target=1, nonce=7)
        monitor.ingress(ctx, reply, StandardMetadata(ingress_port=0))
        assert monitor.last_reply.read(0) == 5 * MICROSECONDS

    def test_missed_deadline_marks_dead_and_notifies(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 50 * MICROSECONDS  # 5 periods of silence
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        assert len(monitor.failures) == 1
        assert monitor.failures[0].port == 0
        assert monitor.notifications_sent == 1
        notify = ctx.generated[-1].require(LivenessEcho)
        assert notify.kind == LivenessEcho.KIND_NOTIFY

    def test_no_duplicate_failure_reports(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 50 * MICROSECONDS
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        ctx._now = 60 * MICROSECONDS
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        assert len(monitor.failures) == 1

    def test_recovery_detected_on_new_reply(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 50 * MICROSECONDS
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        reply = make_liveness_echo(LivenessEcho.KIND_REPLY, origin=2, target=1, nonce=9)
        monitor.ingress(ctx, reply, StandardMetadata(ingress_port=0))
        assert monitor.alive.read(0) == 1
        assert len(monitor.recoveries) == 1

    def test_notify_without_monitor_port_goes_to_cpu(self):
        monitor = self.make(monitor_port=None)
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 50 * MICROSECONDS
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        assert ctx.notifications
        assert ctx.notifications[0]["failed_port"] == 0

    def test_detection_delay_helper(self):
        monitor = self.make()
        ctx = FakeCtx()
        monitor.on_load(ctx)
        ctx._now = 45 * MICROSECONDS
        monitor.on_timer(ctx, Event(EventType.TIMER, 0))
        assert monitor.detection_delay_ps(10 * MICROSECONDS) == 35 * MICROSECONDS
        assert monitor.detection_delay_ps(60 * MICROSECONDS) is None


class TestLinkFlapEventOrdering:
    """A flapping link must order its down/up events deterministically
    against in-flight packet events — pinned to a golden trace."""

    def _flap_trace(self):
        from repro.experiments.factories import make_sume_switch
        from repro.net.host import Host
        from repro.net.network import Network
        from repro.obs import RecordingObserver, observing
        from repro.sim.kernel import Simulator

        observer = RecordingObserver()
        with observing(observer):
            sim = Simulator()
            network = Network(sim)
            factory = make_sume_switch()
            s0 = network.add_switch(factory(sim, "s0", 3))
            s1 = network.add_switch(factory(sim, "s1", 2))
            h0 = network.add_host(Host(sim, "h0", H0_IP))
            h1 = network.add_host(Host(sim, "h1", H1_IP))
            network.connect(h0, 0, s0, 0, latency_ps=500_000)
            network.connect(s0, 1, s1, 0, latency_ps=500_000)
            network.connect(s1, 1, h1, 0, latency_ps=500_000)
            frr = FastRerouteProgram()
            frr.install_protected_route(H1_IP, primary=1, backup=2)
            frr.install_route(H0_IP, 0)
            s0.load_program(frr)
            transit = FastRerouteProgram()
            transit.install_routes({H1_IP: 1, H0_IP: 0})
            s1.load_program(transit)
            # Packets in flight straddling every link transition: odd
            # send spacing versus flap instants forces interleavings.
            from repro.packet.builder import make_udp_packet

            for i in range(40):
                sim.call_at(
                    100_000 + i * 130_000,
                    h0.send,
                    make_udp_packet(H0_IP, H1_IP, payload_len=64),
                )
            link = network.link_between("s0", "s1")
            assert link is not None
            link.fail_at(1_500_000)
            link.recover_at(3_100_000)
            link.fail_at(4_200_000)
            link.recover_at(5_500_000)
            network.run()
        return observer.normalized()

    def test_flap_interleaves_link_and_packet_events(self):
        trace = self._flap_trace()
        kinds = [record[2] for record in trace]
        assert kinds.count("link_status_change") >= 4  # 2 downs + 2 ups at s0
        assert "ingress_packet" in kinds
        # Transitions arrive in strict down/up alternation at s0.
        s0_links = [
            record[5]
            for record in trace
            if record[2] == "link_status_change"
            and record[0] == "publish"
            and record[1] == "s0.bus"
        ]
        ups = [dict(meta)["up"] for meta in s0_links]
        assert ups == [0, 1, 0, 1]

    def test_flap_order_reproducible_on_heap(self):
        assert self._flap_trace() == self._flap_trace()

    def test_flap_order_matches_golden(self):
        # 457 normalized bus records; SHA-256 over their repr, recorded
        # from the heap kernel (the removed wheel queue produced the
        # same trace, as did every accelerator-toggle leg).
        trace = self._flap_trace()
        assert len(trace) == 457
        assert trace_digest(trace) == (
            "14025d6a20cc325843ca03926ad1fdb13ee727a41a37141433667f1aaadb9f20"
        )
