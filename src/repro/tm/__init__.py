"""Traffic manager: shared buffer, queues, schedulers, and event hooks.

The traffic manager sits between the ingress and egress pipelines
(paper Figure 1).  In the event-driven architectures it is also the
*source of truth for buffer events*: every enqueue, dequeue, drop
(overflow) and buffer-empty (underflow) transition fires a hook that
the architecture turns into a data-plane event.
"""

from repro.tm.queues import PacketQueue, QueueStats
from repro.tm.buffer import SharedBuffer
from repro.tm.scheduler import (
    FifoScheduler,
    PifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
)
from repro.tm.traffic_manager import TmEventHooks, TrafficManager

__all__ = [
    "PacketQueue",
    "QueueStats",
    "SharedBuffer",
    "Scheduler",
    "FifoScheduler",
    "StrictPriorityScheduler",
    "PifoScheduler",
    "TrafficManager",
    "TmEventHooks",
]
