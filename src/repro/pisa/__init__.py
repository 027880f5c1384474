"""PISA substrate: match-action tables, pipelines, and externs.

This subpackage models the programmable parts of a Protocol Independent
Switch Architecture target: the match-action tables (exact / LPM /
ternary), the pipeline of stages a control block compiles to, and the
stateful externs the architecture exposes to P4 programs (registers,
counters, meters, sketches, PIFO queues, and the paper's new
``shared_register``).
"""

from repro.pisa.action import Action, ActionCall
from repro.pisa.metadata import StandardMetadata
from repro.pisa.pipeline import Pipeline
from repro.pisa.table import (
    ExactTable,
    LpmTable,
    Table,
    TableEntry,
    TernaryTable,
)
from repro.pisa.externs.register import Register, SharedRegister
from repro.pisa.externs.counter import Counter
from repro.pisa.externs.meter import Meter, MeterColor
from repro.pisa.externs.sketch import BloomFilter, CountMinSketch
from repro.pisa.externs.pifo import PifoQueue
from repro.pisa.externs.window import ShiftRegister, SlidingWindow

__all__ = [
    "Action",
    "ActionCall",
    "StandardMetadata",
    "Pipeline",
    "Table",
    "TableEntry",
    "ExactTable",
    "LpmTable",
    "TernaryTable",
    "Register",
    "SharedRegister",
    "Counter",
    "Meter",
    "MeterColor",
    "CountMinSketch",
    "BloomFilter",
    "PifoQueue",
    "ShiftRegister",
    "SlidingWindow",
]
