"""Unit and end-to-end tests for the language compiler/interpreter."""

import pytest

from app_harness import H0_IP, H1_IP, single_switch

from repro.arch.events import EventType
from repro.lang import LangSemanticError, compile_program
from repro.lang.errors import LangRuntimeError
from repro.packet.builder import make_udp_packet
from repro.packet.hashing import ip_pair_hash
from repro.sim.units import MICROSECONDS

MICROBURST_SOURCE = """
program microburst;

shared_register<32>(1024) bufSize_reg;
const FLOW_THRESH = 3000;

on ingress_packet {
    var flowID = hash(ip.src, ip.dst, 1024);
    set_enq_meta("flowID", flowID);
    set_enq_meta("pkt_len", pkt.len);
    set_deq_meta("flowID", flowID);
    set_deq_meta("pkt_len", pkt.len);
    var bufSize = bufSize_reg.read(flowID);
    if (bufSize > FLOW_THRESH) {
        mark(flowID);
    }
    forward_by_ip();
}

on buffer_enqueue {
    bufSize_reg.add(event.flowID, event.pkt_len);
}

on buffer_dequeue {
    bufSize_reg.sub(event.flowID, event.pkt_len);
}
"""


class TestCompileChecks:
    def test_valid_program_compiles(self):
        program = compile_program(MICROBURST_SOURCE)
        assert program.name == "microburst"
        assert program.handled_events() == {
            EventType.INGRESS_PACKET,
            EventType.ENQUEUE,
            EventType.DEQUEUE,
        }
        assert program.state_bits() == 1024 * 32

    def test_unknown_event_rejected(self):
        with pytest.raises(LangSemanticError) as excinfo:
            compile_program("program p;\non lunar_eclipse { drop(); }\n")
        assert "lunar_eclipse" in str(excinfo.value)

    def test_duplicate_handler_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\n"
                "on timer_expiration { mark(1); }\n"
                "on timer_expiration { mark(2); }\n"
            )

    def test_unknown_register_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non timer_expiration { ghost.add(0, 1); }\n")

    def test_unknown_register_method_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\nregister<32>(4) r;\n"
                "on timer_expiration { r.increment(0); }\n"
            )

    def test_register_method_arity_checked(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\nregister<32>(4) r;\n"
                "on timer_expiration { r.write(0); }\n"
            )

    def test_unknown_builtin_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non timer_expiration { frobnicate(); }\n")

    def test_builtin_arity_checked(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non ingress_packet { forward(); }\n")

    def test_packet_builtin_rejected_in_event_handler(self):
        with pytest.raises(LangSemanticError) as excinfo:
            compile_program("program p;\non buffer_enqueue { drop(); }\n")
        assert "packet-event handlers" in str(excinfo.value)

    def test_header_fields_rejected_in_event_handler(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non timer_expiration { mark(ip.src); }\n")

    def test_event_fields_rejected_in_packet_handler(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non ingress_packet { mark(event.x); }\n")

    def test_configure_timer_only_in_init(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\non ingress_packet { configure_timer(0, 10); }\n"
            )
        compile_program("program p;\ninit { configure_timer(0, 10); }\n")

    def test_unknown_name_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non timer_expiration { mark(undeclared); }\n")

    def test_assign_before_var_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non timer_expiration { x = 1; }\n")

    def test_branch_scopes_do_not_leak(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\n"
                "on timer_expiration { if (1) { var x = 1; } mark(x); }\n"
            )

    def test_unknown_header_field_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program("program p;\non ingress_packet { mark(ip.color); }\n")

    def test_duplicate_register_rejected(self):
        with pytest.raises(LangSemanticError):
            compile_program(
                "program p;\nregister<32>(4) r;\nregister<32>(8) r;\n"
            )


class TestExecution:
    def test_microburst_end_to_end(self):
        program = compile_program(MICROBURST_SOURCE)
        network, switch, sink = single_switch(program)
        switch.tm.set_port_rate(1, 0.5)
        h0 = network.hosts["h0"]
        for i in range(10):
            network.sim.call_at(
                1_000 + i * 10_000,
                h0.send,
                make_udp_packet(H0_IP, H1_IP, payload_len=1400),
            )
        network.run(until_ps=2_000 * MICROSECONDS)
        flow_id = ip_pair_hash(H0_IP, H1_IP, 1024)
        assert flow_id in program.marked_values()
        assert sink.packets == 10
        # All state drained back to zero afterwards.
        assert program.registers["bufSize_reg"].nonzero_count() == 0

    def test_source_program_matches_native_detector(self):
        """The DSL microburst and the native one mark the same flow."""
        from repro.apps.microburst import MicroburstDetector

        native = MicroburstDetector(num_regs=1024, flow_thresh_bytes=3_000)

        def run(program):
            network, switch, sink = single_switch(program)
            switch.tm.set_port_rate(1, 0.5)
            h0 = network.hosts["h0"]
            for i in range(10):
                network.sim.call_at(
                    1_000 + i * 10_000,
                    h0.send,
                    make_udp_packet(H0_IP, H1_IP, payload_len=1400),
                )
            network.run(until_ps=2_000 * MICROSECONDS)

        compiled = compile_program(MICROBURST_SOURCE)
        run(compiled)
        run(native)
        assert set(compiled.marked_values()) == set(native.detected_flows())

    def test_timer_and_init(self):
        source = (
            "program ticker;\n"
            "register<32>(1) ticks;\n"
            "init { configure_timer(0, 1000000); }\n"
            "on timer_expiration { ticks.add(0, 1); log(now()); }\n"
        )
        program = compile_program(source)
        network, switch, sink = single_switch(program, install_routes=False)
        network.run(until_ps=3_500_000)
        assert program.registers["ticks"].read(0) == 3
        # Handlers run after merger wait + pipeline latency (45 ns on
        # the SUME model), so now() trails each firing slightly.
        fired = [entry[0] for entry in program.logs]
        assert [t // 1_000_000 for t in fired] == [1, 2, 3]
        assert all(t % 1_000_000 < 100_000 for t in fired)

    def test_arithmetic_and_control_flow(self):
        source = (
            "program math;\n"
            "on ingress_packet {\n"
            "  var x = (10 - 4) / 3;\n"
            "  var y = x % 2;\n"
            "  if (y == 0 && x > 1) { mark(x); } else { mark(0 - 1); }\n"
            "  drop();\n"
            "}\n"
        )
        program = compile_program(source)
        network, switch, sink = single_switch(program, install_routes=False)
        network.hosts["h0"].send(make_udp_packet(H0_IP, H1_IP))
        network.run()
        assert program.marks == [(2,)]

    def test_runtime_error_on_missing_event_key(self):
        source = "program p;\non buffer_enqueue { mark(event.nonexistent); }\n"
        program = compile_program(source)
        network, switch, sink = single_switch(program, install_routes=False)
        network.hosts["h0"].send(make_udp_packet(H0_IP, H1_IP))
        # forward_by_ip was never called → drop; but enqueue never fires
        # since the packet was dropped at ingress... send via a program
        # that forwards: instead directly dispatch the handler.
        from repro.arch.events import Event

        with pytest.raises(LangRuntimeError):
            program.handler_for(EventType.ENQUEUE)(
                switch.ctx, Event(EventType.ENQUEUE, 0, meta={"pkt_len": 1})
            )

    def test_drop_and_priority_builtins(self):
        source = (
            "program steer;\n"
            "on ingress_packet {\n"
            "  set_priority(5);\n"
            "  set_queue(1);\n"
            "  if (udp.dport == 9) { drop(); } else { forward(1); }\n"
            "}\n"
        )
        program = compile_program(source)
        network, switch, sink = single_switch(program, install_routes=False)
        network.hosts["h0"].send(make_udp_packet(H0_IP, H1_IP, dport=9))
        network.hosts["h0"].send(make_udp_packet(H0_IP, H1_IP, dport=10))
        network.run()
        assert sink.packets == 1
        assert switch.dropped_by_program == 1
