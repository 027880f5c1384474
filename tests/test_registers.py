"""Unit and property tests for register externs."""

import pytest
from hypothesis import given, strategies as st

from repro.pisa.externs.register import Register, SharedRegister


class TestRegister:
    def test_initial_state_zero(self):
        reg = Register(8)
        assert reg.snapshot() == [0] * 8
        assert reg.nonzero_count() == 0

    def test_read_write(self):
        reg = Register(4)
        reg.write(2, 99)
        assert reg.read(2) == 99
        assert reg.read(0) == 0

    def test_write_wraps_to_width(self):
        reg = Register(2, width_bits=8)
        reg.write(0, 0x1FF)
        assert reg.read(0) == 0xFF

    def test_add_wraps(self):
        reg = Register(1, width_bits=8)
        reg.write(0, 250)
        assert reg.add(0, 10) == 4  # (250+10) mod 256

    def test_sub_wraps_like_hardware(self):
        reg = Register(1, width_bits=8)
        assert reg.sub(0, 1) == 255

    def test_modify(self):
        reg = Register(1)
        reg.write(0, 7)
        assert reg.modify(0, lambda v: v * 3) == 21

    def test_bounds_checked(self):
        reg = Register(4, name="r")
        with pytest.raises(IndexError):
            reg.read(4)
        with pytest.raises(IndexError):
            reg.write(-1, 0)

    def test_clear(self):
        reg = Register(4)
        reg.write(1, 5)
        reg.clear()
        assert reg.snapshot() == [0, 0, 0, 0]

    def test_access_counters(self):
        reg = Register(4)
        reg.read(0)
        reg.write(0, 1)
        reg.add(0, 1)  # read + write
        assert reg.read_count == 2
        assert reg.write_count == 2

    def test_state_bits(self):
        assert Register(1024, width_bits=32).state_bits == 32_768
        assert len(Register(10)) == 10

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Register(0)
        with pytest.raises(ValueError):
            Register(4, width_bits=0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(-(10**9), 10**9)),
            max_size=60,
        )
    )
    def test_add_matches_modular_arithmetic_property(self, ops):
        reg = Register(8, width_bits=16)
        model = [0] * 8
        for index, delta in ops:
            reg.add(index, delta)
            model[index] = (model[index] + delta) % (1 << 16)
        assert reg.snapshot() == model


class TestSharedRegister:
    def test_thread_attribution(self):
        reg = SharedRegister(4)
        reg.set_thread("ingress_packet")
        reg.read(0)
        reg.set_thread("buffer_enqueue")
        reg.add(0, 5)
        reg.add(1, 5)
        reg.set_thread(None)
        reg.read(0)  # unattributed
        assert reg.accesses_by_thread == {
            "ingress_packet": 1,
            "buffer_enqueue": 2,
        }
        assert reg.sharing_threads == ["buffer_enqueue", "ingress_packet"]

    def test_behaves_like_register(self):
        reg = SharedRegister(2, width_bits=8)
        reg.write(0, 200)
        assert reg.add(0, 100) == 44

    def test_out_of_range_access_is_counted_then_raises(self):
        reg = SharedRegister(4, name="r")
        reg.set_thread("buffer_enqueue")
        message = r"register 'r' index {} out of range \[0, 4\)"
        with pytest.raises(IndexError, match=message.format(4)):
            reg.read(4)
        with pytest.raises(IndexError, match=message.format(-1)):
            reg.add(-1, 3)
        with pytest.raises(IndexError, match=message.format(9)):
            reg.sub(9, 1)
        # The thread's access lands before the bounds check; the cell
        # counters and the cells do not move.
        assert reg.accesses_by_thread == {"buffer_enqueue": 3}
        assert (reg.read_count, reg.write_count) == (0, 0)
        assert reg.snapshot() == [0, 0, 0, 0]

    def test_microburst_accounting_matches_golden(self):
        from repro.experiments.microburst_exp import (
            finish_event_driven,
            prepare_event_driven,
        )
        from repro.sim.units import MILLISECONDS

        # s0's detector after a 4 ms, seed-7 run, recorded before
        # read/add were flattened into one frame each.
        setup = prepare_event_driven(duration_ps=4 * MILLISECONDS, seed=7)
        finish_event_driven(setup)
        reg = setup.detector.flow_buf_size
        assert reg.accesses_by_thread == {
            "buffer_dequeue": 1268,
            "buffer_enqueue": 1268,
            "ingress_packet": 1268,
        }
        assert (reg.read_count, reg.write_count) == (3804, 2536)
