"""Unit tests for the egress schedulers."""

import pytest

from repro.packet.builder import make_udp_packet
from repro.tm.queues import PacketQueue
from repro.tm.scheduler import (
    FifoScheduler,
    PifoScheduler,
    StrictPriorityScheduler,
)


def pkt(payload=0, queue_id=0, priority=0):
    p = make_udp_packet(1, 2, payload_len=payload)
    p.queue_id = queue_id
    p.priority = priority
    return p


def push(queue, p):
    queue.push(p, p.total_len)


def make_queues(n, capacity=100_000):
    return [PacketQueue(capacity, name=f"q{i}") for i in range(n)]


class TestFifo:
    def test_serves_in_order(self):
        queues = make_queues(1)
        sched = FifoScheduler(queues)
        a, b = pkt(), pkt()
        push(queues[0], a)
        push(queues[0], b)
        assert sched.dequeue()[0] is a
        assert sched.dequeue()[0] is b
        assert sched.dequeue() is None

    def test_requires_queues(self):
        with pytest.raises(ValueError):
            FifoScheduler([])

    def test_serves_every_queue_first_non_empty_first(self):
        queues = make_queues(2)
        sched = FifoScheduler(queues)
        only = pkt(queue_id=1)
        push(queues[1], only)
        assert sched.select() == 1
        assert sched.dequeue() == (only, only.total_len)
        assert sched.dequeue() is None


class TestStrictPriority:
    def test_lower_queue_always_first(self):
        queues = make_queues(2)
        sched = StrictPriorityScheduler(queues)
        low = pkt()
        high = pkt()
        push(queues[1], low)
        push(queues[0], high)
        assert sched.dequeue()[0] is high
        assert sched.dequeue()[0] is low

    def test_high_queue_can_starve_low(self):
        queues = make_queues(2)
        sched = StrictPriorityScheduler(queues)
        for _ in range(3):
            push(queues[0], pkt())
        push(queues[1], pkt())
        order = [0 if sched.select() == 0 else 1 for _ in range(3)
                 if sched.dequeue() is not None]
        assert 1 not in order[:2]


class TestPifoScheduler:
    def test_pops_by_rank_function(self):
        queues = make_queues(1)
        sched = PifoScheduler(queues, rank_fn=lambda p: p.priority)
        late = pkt(priority=9)
        early = pkt(priority=1)
        assert sched.on_enqueue(late) is None
        assert sched.on_enqueue(early) is None
        assert sched.dequeue()[0] is early
        assert sched.dequeue()[0] is late

    def test_dequeue_reads_size_at_pop(self):
        queues = make_queues(1)
        sched = PifoScheduler(queues, rank_fn=lambda p: 0)
        p = pkt(458)
        sched.on_enqueue(p)
        assert sched.dequeue() == (p, 500)

    def test_depth_accounting(self):
        queues = make_queues(1)
        sched = PifoScheduler(queues, rank_fn=lambda p: 0)
        sched.on_enqueue(pkt(458))
        assert sched.depth_bytes == 500
        sched.dequeue()
        assert sched.depth_bytes == 0

    def test_full_pifo_returns_displaced(self):
        queues = make_queues(1)
        sched = PifoScheduler(queues, rank_fn=lambda p: p.priority, capacity=1)
        keeper = pkt(priority=1)
        worse = pkt(priority=5)
        assert sched.on_enqueue(keeper) is None
        assert sched.on_enqueue(worse) is worse  # rejected
        better = pkt(priority=0)
        assert sched.on_enqueue(better) is keeper  # displaced
        assert sched.dequeue()[0] is better
