"""One rep of one workload, in a fresh interpreter.

``run.py`` spawns this once per (workload, rep); it prints one JSON
object as its last line.  ``setup_s`` counts from the first statement
below — before ``repro`` is imported — to the start of the timed region.
"""

from time import perf_counter

_STARTED = perf_counter()

import hostref  # noqa: E402  (stdlib only: costs set-up nothing to speak of)

_FIRST_REF = hostref.sample()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tmp", required=True, help="scratch dir for sockets")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--pin", action="store_true",
        help="also report the digest expected.json should hold",
    )
    args = parser.parse_args()

    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.scale, args.tmp)
    out = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup()
        out["setup_s"] = perf_counter() - _STARTED
        clock = hostref.HostClock()
        out["setup_scaled_s"] = hostref.scaled(
            out["setup_s"], _FIRST_REF, clock.samples[0]
        )
        if not args.setup_only:
            for step in workload.traced_steps() if args.trace else workload.steps():
                clock.time(step)
            workload.wall_s = out["wall_s"] = clock.raw_s
            out["scaled_s"] = clock.scaled_s
            out["host_ref_s"] = statistics.median(clock.samples)
            out.update(workload.finish())
            if args.pin:
                out["pin"] = workload.pin_digest(out["digest"])
            if args.trace:
                from layers import run_probes

                # Whatever set-up started is stopped first, so the re-runs
                # and probes below have the cores to themselves.
                workload.close()
                out["layers"] = workload.counts()
                out["extended"] = workload.extras()
                out["layers"].update(run_probes(args.seed, args.scale))
            out["problems"] = workload.problems
    finally:
        workload.close()
    # Workers, shards and the job server are children of this process and
    # have been waited for by now, so RUSAGE_CHILDREN holds the largest.
    out["rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
