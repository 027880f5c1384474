"""Unit tests for packet queues and the shared buffer."""

import pytest

from repro.packet.builder import make_udp_packet
from repro.tm.buffer import SharedBuffer
from repro.tm.queues import PacketQueue


def pkt(size_payload=0):
    # 458B payload + 42B headers = 500B total.
    return make_udp_packet(1, 2, payload_len=size_payload)


def push(queue, p):
    queue.push(p, p.total_len)


class TestPacketQueue:
    def test_fifo_order(self):
        queue = PacketQueue(10_000)
        first, second = pkt(), pkt()
        push(queue, first)
        push(queue, second)
        assert queue.pop()[0] is first
        assert queue.pop()[0] is second

    def test_byte_accounting(self):
        queue = PacketQueue(10_000)
        p = pkt(458)  # 500B total
        push(queue, p)
        assert queue.depth_bytes == 500
        queue.pop()
        assert queue.depth_bytes == 0
        assert queue.empty

    def test_fits_respects_capacity(self):
        queue = PacketQueue(600)
        push(queue, pkt(458))  # 500B
        assert not queue.fits(500)
        assert queue.fits(64)  # a minimum frame still fits

    def test_push_beyond_capacity_raises(self):
        queue = PacketQueue(100)
        with pytest.raises(OverflowError):
            push(queue, pkt(458))

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PacketQueue(100).pop()

    def test_peek_does_not_remove(self):
        queue = PacketQueue(1_000)
        p = pkt()
        push(queue, p)
        assert queue.peek() is p
        assert len(queue) == 1
        assert PacketQueue(10).peek() is None

    def test_stats_track_watermarks(self):
        queue = PacketQueue(10_000)
        push(queue, pkt(458))
        push(queue, pkt(458))
        queue.pop()
        assert queue.stats.enqueued_packets == 2
        assert queue.stats.dequeued_packets == 1
        assert queue.stats.max_depth_bytes == 1_000
        assert queue.stats.max_depth_packets == 2

    def test_drop_accounting(self):
        queue = PacketQueue(100)
        queue.account_drop(500)
        assert queue.stats.dropped_packets == 1
        assert queue.stats.dropped_bytes == 500

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PacketQueue(0)


class TestSharedBuffer:
    def test_admit_and_release(self):
        buffer = SharedBuffer(1_000)
        buffer.admit(500)
        assert buffer.occupancy_bytes == 500
        buffer.release(500)
        assert buffer.occupancy_bytes == 0
        assert buffer.empty

    def test_fits_and_overflow(self):
        buffer = SharedBuffer(600)
        buffer.admit(500)
        assert not buffer.fits(500)
        with pytest.raises(OverflowError):
            buffer.admit(500)

    def test_release_more_than_held_raises(self):
        buffer = SharedBuffer(1_000)
        with pytest.raises(ValueError):
            buffer.release(500)

    def test_high_water_mark(self):
        buffer = SharedBuffer(10_000)
        buffer.admit(500)
        buffer.admit(500)
        buffer.release(500)
        assert buffer.max_occupancy_bytes == 1_000
        assert buffer.occupancy_bytes == 500

    def test_reject_counter(self):
        buffer = SharedBuffer(100)
        buffer.reject()
        assert buffer.rejected_packets == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SharedBuffer(0)
