"""Unit tests for the event-driven programming model."""

import pytest

from repro.arch.description import (
    BASELINE_PSA,
    FULL_EVENT_SWITCH,
    LOGICAL_EVENT_DRIVEN,
    STOCK_DESCRIPTIONS,
    SUME_EVENT_SWITCH,
    TOFINO_LIKE,
    UnsupportedEventError,
)
from repro.arch.events import Event, EventType
from repro.arch.program import P4Program, ProgramContext, handler
from repro.pisa.externs.register import Register, SharedRegister
from repro.pisa.externs.sketch import CountMinSketch


class TinyProgram(P4Program):
    name = "tiny"

    def __init__(self):
        super().__init__()
        self.shared = SharedRegister(4, name="s")
        self.plain = Register(4, name="p")
        self.sketch = CountMinSketch(16, 2)
        self.not_an_extern = [1, 2, 3]
        self.timer_events = []

    @handler(EventType.INGRESS_PACKET)
    def ingress(self, ctx, pkt, meta):
        pkt.note("ingress ran")

    @handler(EventType.TIMER)
    def on_timer(self, ctx, event):
        self.timer_events.append(event)


def test_handled_events_discovered():
    program = TinyProgram()
    assert program.handled_events() == {EventType.INGRESS_PACKET, EventType.TIMER}
    assert program.handler_for(EventType.TIMER) is not None
    assert program.handler_for(EventType.DEQUEUE) is None


def test_externs_discovered_sorted():
    program = TinyProgram()
    names = [name for name, _ in program.externs()]
    assert names == ["plain", "shared", "sketch"]
    assert len(program.shared_registers()) == 1


def test_state_bits_sums_externs():
    program = TinyProgram()
    assert program.state_bits() == 4 * 32 + 4 * 32 + 16 * 2 * 32


def test_duplicate_handler_rejected():
    with pytest.raises(TypeError):

        class Duplicate(P4Program):
            @handler(EventType.TIMER)
            def a(self, ctx, event):
                pass

            @handler(EventType.TIMER)
            def b(self, ctx, event):
                pass

        Duplicate()


def test_one_method_cannot_handle_two_events():
    with pytest.raises(TypeError):

        class TwoKinds(P4Program):
            @handler(EventType.TIMER)
            @handler(EventType.DEQUEUE)
            def a(self, ctx, event):
                pass


def test_dispatch_event_runs_handler():
    program = TinyProgram()
    event = Event(kind=EventType.TIMER, time_ps=5, meta={"timer_id": 1})
    program.handler_for(event.kind)(ProgramContext(), event)
    assert program.timer_events == [event]


def test_base_context_raises_everywhere():
    ctx = ProgramContext()
    with pytest.raises(NotImplementedError):
        ctx.configure_timer(0, 100)
    with pytest.raises(NotImplementedError):
        ctx.generate_packet(None)
    with pytest.raises(NotImplementedError):
        ctx.raise_user_event({})
    with pytest.raises(NotImplementedError):
        ctx.link_up(0)
    with pytest.raises(NotImplementedError):
        _ = ctx.now_ps


class TestDescriptions:
    def test_validate_accepts_supported(self):
        LOGICAL_EVENT_DRIVEN.validate_events(set(EventType))

    def test_validate_rejects_unsupported(self):
        with pytest.raises(UnsupportedEventError) as excinfo:
            BASELINE_PSA.validate_events({EventType.ENQUEUE, EventType.TIMER})
        assert "buffer_enqueue" in str(excinfo.value)
        assert "timer_expiration" in str(excinfo.value)

    def test_emulated_events_count_as_supported(self):
        TOFINO_LIKE.validate_events({EventType.TIMER, EventType.DEQUEUE})
        with pytest.raises(UnsupportedEventError):
            TOFINO_LIKE.validate_events({EventType.LINK_STATUS})

    def test_support_row_labels(self):
        row = TOFINO_LIKE.support_row()
        assert row[EventType.TIMER.value] == "emulated"
        assert row[EventType.INGRESS_PACKET.value] == "native"
        assert row[EventType.USER.value] == "—"

    @pytest.mark.parametrize(
        "description",
        [*STOCK_DESCRIPTIONS, FULL_EVENT_SWITCH],
        ids=lambda description: description.name,
    )
    def test_supports_agrees_with_all_events(self, description):
        for kind in EventType:
            assert description.supports(kind) == (kind in description.all_events)

    def test_sume_matches_paper_section5(self):
        # "regular P4 packet events, plus enqueue, dequeue, and drop
        # events, timer events, link status change events".
        assert SUME_EVENT_SWITCH.supports(EventType.ENQUEUE)
        assert SUME_EVENT_SWITCH.supports(EventType.BUFFER_OVERFLOW)
        assert SUME_EVENT_SWITCH.supports(EventType.LINK_STATUS)
        assert not SUME_EVENT_SWITCH.supports(EventType.EGRESS_PACKET)
        assert not SUME_EVENT_SWITCH.supports(EventType.USER)


def test_event_require_pkt():
    event = Event(kind=EventType.TIMER, time_ps=0)
    with pytest.raises(ValueError):
        event.require_pkt()
