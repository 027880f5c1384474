"""cProfile the timed region of a ``perf/`` workload, by cumtime and tottime.

Runs one ``perf/workloads.py`` workload (default ``microburst_sume``:
every flow uncacheable, so arch/tm/externs/kernel do all the work) the
way ``perf/child.py`` does — ``setup()`` outside the profile, exactly
the ``steps()`` calls under :mod:`cProfile`, then ``finish()`` /
``close()`` — and writes the profile two ways:

* a text report of the top functions sorted by cumulative time, then
  the same number sorted by self time (the artifact CI uploads: where
  wall time goes before/after a change; on flat profiles such as
  ``microburst_sume`` and ``fabric_zipf`` the self-time table is the
  one that shows it), and
* optionally the raw ``pstats`` dump for interactive digging
  (``python -m pstats profile.pstats``).

``--callers PATTERN`` appends, for every profiled function whose name
matches the regular expression (e.g. ``builtins.len`` or
``method 'get' of 'dict'``), its top callers by call count: where a
flat profile's hundreds of thousands of small calls come from.

``--pending`` appends the kernel's ``pending_events`` read at the start
of every timed step (first, median and max): how deep the event queue
is while the workload runs.  Only the in-process single-simulator
workloads (``microburst_sume``, ``fabric_zipf``, ``chain_paced``,
``chain_churn``) have one kernel to read; for the others the report
says so.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py
    PYTHONPATH=src python tools/profile_hotpath.py --workload chain_paced \
        --out profile_chain.txt --pstats profile_chain.pstats
    PYTHONPATH=src python tools/profile_hotpath.py --callers 'builtins.len' --out -
    PYTHONPATH=src python tools/profile_hotpath.py --workload chain_paced \
        --pending --out -
    REPRO_PIPELINE_COMPILE=0 PYTHONPATH=src python tools/profile_hotpath.py

Environment toggles apply as everywhere else: set
``REPRO_PIPELINE_COMPILE=0`` / ``REPRO_FLOW_CACHE=0`` to profile the
interpreted or uncached variants of the same workload.  cProfile shifts
proportions: find candidates here, measure with ``perf/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import re
import sys
import tempfile

# tools/ may import perf/ (src/ may not): the workloads are the benchmark's.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perf"))
from workloads import WORKLOAD_CLASSES  # noqa: E402


#: Where each in-process single-simulator workload keeps its kernel.
_SIMULATORS = {
    "microburst_sume": lambda workload: workload.state.network.sim,
    "fabric_zipf": lambda workload: workload.runtime.sim,
    "chain_paced": lambda workload: workload.network.sim,
    "chain_churn": lambda workload: workload.network.sim,
}


def profile_workload(
    name: str, seed: int, scale: float = 1.0, pending: list | None = None
) -> cProfile.Profile:
    """Profile one run of a workload's timed region; returns the profiler.

    With a ``pending`` list (single-simulator workloads only), appends
    the kernel's ``pending_events`` at the start of every step.
    """
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="profile-") as tmp:
        workload = WORKLOAD_CLASSES[name](seed, scale, tmp)
        try:
            workload.setup()
            steps = workload.steps()
            sim = _SIMULATORS[name](workload) if pending is not None else None
            with profiler:
                for step in steps:
                    if sim is not None:
                        pending.append(sim.pending_events)
                    step()
            workload.finish()
        finally:
            workload.close()
    return profiler


def report(profiler: cProfile.Profile, name: str, top: int) -> str:
    """The text report: the top functions by cumulative time, then by
    self time."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    buffer.write(f"hot path profile: perf workload {name!r}\n")
    for key, label in (
        (pstats.SortKey.CUMULATIVE, "cumulative time"),
        (pstats.SortKey.TIME, "self time (tottime)"),
    ):
        buffer.write(f"(sorted by {label}, top {top} functions)\n\n")
        stats.sort_stats(key)
        stats.print_stats(top)
    return buffer.getvalue()


def callers(profiler: cProfile.Profile, pattern: str, top: int) -> str:
    """For each profiled function matching ``pattern`` (a regex searched
    in its pstats name), most-called first: its call count, then its top
    ``top`` callers by the number of calls each made."""
    regex = re.compile(pattern)
    buffer = io.StringIO()
    buffer.write(f"(callers of functions matching {pattern!r}, top {top} by calls)\n")
    rows = pstats.Stats(profiler).stats.items()
    # A stats row is (primitive calls, calls, tottime, cumtime, callers);
    # each callers entry is (calls, primitive calls, tottime, cumtime).
    for func, (_cc, calls, _tt, _ct, by_caller) in sorted(
        rows, key=lambda row: -row[1][1]
    ):
        name = pstats.func_std_string(func)
        if not regex.search(name):
            continue
        buffer.write(f"\n{calls:>12,}  {name}\n")
        ranked = sorted(by_caller.items(), key=lambda item: -item[1][0])
        for caller, (caller_calls, *_rest) in ranked[:top]:
            buffer.write(f"{caller_calls:>12,}    {pstats.func_std_string(caller)}\n")
    return buffer.getvalue()


def pending_report(name: str, pending: list) -> str:
    """First, median and max of the per-step ``pending_events`` reads."""
    if not pending:
        return f"(pending events: {name!r} has no single in-process simulator)\n"
    ordered = sorted(pending)
    return (
        f"(pending events at {len(pending)} step starts: first {pending[0]:,}, "
        f"median {ordered[len(ordered) // 2]:,}, max {ordered[-1]:,})\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_CLASSES),
        default="microburst_sume",
        help="perf/ workload whose timed region is profiled",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--top",
        type=int,
        default=40,
        metavar="N",
        help="number of functions in each table of the text report",
    )
    parser.add_argument(
        "--out",
        default="profile_hotpath.txt",
        metavar="PATH",
        help="text report path ('-' = stdout only)",
    )
    parser.add_argument(
        "--pstats",
        default="",
        metavar="PATH",
        help="also dump the raw pstats file for interactive analysis",
    )
    parser.add_argument(
        "--callers",
        default="",
        metavar="PATTERN",
        help="also list the top callers (by call count) of every function "
        "whose pstats name matches this regular expression",
    )
    parser.add_argument(
        "--pending",
        action="store_true",
        help="also report the kernel's pending_events at each step start "
        "(first, median, max)",
    )
    args = parser.parse_args(argv)

    pending = [] if args.pending and args.workload in _SIMULATORS else None
    profiler = profile_workload(args.workload, args.seed, pending=pending)
    text = report(profiler, args.workload, args.top)
    if args.callers:
        text += "\n" + callers(profiler, args.callers, args.top)
    if args.pending:
        text += "\n" + pending_report(args.workload, pending or [])
    sys.stdout.write(text)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    if args.pstats:
        profiler.dump_stats(args.pstats)
        print(f"wrote {args.pstats}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
