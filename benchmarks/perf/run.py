"""CLI entry point of the perf-benchmark harness.

Examples::

    # Full trajectory file (committed as BENCH_PR<N>.json):
    PYTHONPATH=src python -m benchmarks.perf.run --scenario all --out BENCH_PR2.json

    # CI smoke: smallest scenario, quick mode, hard events/sec floor:
    PYTHONPATH=src python -m benchmarks.perf.run --scenario midsize-malb \\
        --quick --out bench-smoke.json --min-events-per-sec 8000

Exit status is non-zero when a ``--min-events-per-sec`` floor is violated
or ``--dsan`` finds a diverging event, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.perf.harness import format_table, write_bench_json
from benchmarks.perf.scenarios import SCENARIOS
from repro.experiments.runner import add_observer_arguments, run_observed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.run",
        description="Time representative paper-scale scenarios and report "
                    "events/sec plus wall-clock.")
    parser.add_argument("--scenario", action="append", default=None,
                        help="scenario name (repeatable) or 'all'; "
                             "available: %s" % ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--out", default=None,
                        help="write results to this BENCH_*.json file")
    parser.add_argument("--quick", action="store_true",
                        help="shrink scenarios for a smoke run")
    parser.add_argument("--note", default="",
                        help="free-form provenance note stored in the JSON")
    parser.add_argument("--min-events-per-sec", type=float, default=None,
                        help="fail (exit 1) if any timed scenario falls below "
                             "this events/sec floor")
    add_observer_arguments(parser)
    args = parser.parse_args(argv)

    wanted = args.scenario or ["all"]
    if "all" in wanted:
        names = sorted(SCENARIOS)
    else:
        names = []
        for name in wanted:
            if name not in SCENARIOS:
                parser.error("unknown scenario %r (available: %s)"
                             % (name, ", ".join(sorted(SCENARIOS))))
            names.append(name)

    timings: dict = {}
    deterministic = True
    for name in names:
        print("running %s%s ..." % (name, " (quick)" if args.quick else ""),
              flush=True)
        suffix = "" if len(names) == 1 else "." + name
        timing, same = run_observed(
            parser, args,
            lambda observer, name=name: SCENARIOS[name](args.quick,
                                                        observer=observer),
            suffix)
        deterministic = deterministic and same
        if timing is None:
            continue
        timings[name] = timing
        print("  %.2f s wall, %d events (%.0f events/s), %d txns, %.1f tps"
              % (timing.wall_seconds, timing.events_processed,
                 timing.events_per_second, timing.transactions_completed,
                 timing.throughput_tps), flush=True)
    if args.dsan:
        return 0 if deterministic else 1

    print()
    print(format_table(timings))

    if args.out:
        note = args.note or ("quick run" if args.quick else "")
        write_bench_json(args.out, timings, note=note)
        print("\nwrote %s" % args.out)

    if args.min_events_per_sec is not None:
        too_slow = {name: t.events_per_second for name, t in timings.items()
                    if t.events_per_second < args.min_events_per_sec}
        if too_slow:
            print("\nPERF FLOOR VIOLATED (< %.0f events/s): %s"
                  % (args.min_events_per_sec,
                     ", ".join("%s=%.0f" % kv for kv in sorted(too_slow.items()))),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
