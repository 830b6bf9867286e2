"""CLI entry point of the perf-benchmark harness.

Examples::

    # Full trajectory file (committed as BENCH_PR<N>.json):
    PYTHONPATH=src python -m benchmarks.perf.run --scenario all --out BENCH_PR2.json

    # CI smoke: smallest scenario, quick mode, hard events/sec floor:
    PYTHONPATH=src python -m benchmarks.perf.run --scenario midsize-malb \\
        --quick --out bench-smoke.json --min-events-per-sec 8000

Exit status is non-zero when a ``--min-events-per-sec`` floor is violated,
so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.perf.harness import ScenarioTiming, format_table, write_bench_json
from benchmarks.perf.scenarios import SCENARIOS
from repro.experiments.runner import _suffixed


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
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="attach the tracer to each cluster scenario and "
                             "write Chrome trace-event JSON (perfetto) here; "
                             "with several scenarios the scenario name is "
                             "suffixed onto the file name")
    parser.add_argument("--telemetry-json", default=None, metavar="PATH",
                        help="attach the telemetry registry (5 s snapshots) "
                             "and write its JSON export here")
    parser.add_argument("--dsan", action="store_true",
                        help="determinism sanitizer: run each scenario twice "
                             "with event-stream fingerprinting and fail on "
                             "the first diverging event (no timings; forces "
                             "serial; excludes --trace/--telemetry-json)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run scenarios in a pool of N worker processes "
                             "and merge the timings into one report; ignored "
                             "(serial) with --trace/--telemetry-json, which "
                             "attach in-process observers.  Parallel runs "
                             "share cores, so use for coverage sweeps, not "
                             "for committed BENCH numbers")
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

    observing = args.trace is not None or args.telemetry_json is not None
    if args.dsan and observing:
        parser.error("--dsan excludes --trace/--telemetry-json (both claim "
                     "the cluster's observability slot)")
    if args.dsan:
        return _run_dsan(names, args.quick)

    timings: dict = {}
    if args.workers > 1 and not observing and len(names) > 1:
        import multiprocessing

        print("running %d scenarios in %d worker processes ..."
              % (len(names), args.workers), flush=True)
        with multiprocessing.Pool(min(args.workers, len(names))) as pool:
            results = pool.starmap(_run_one,
                                   [(name, args.quick) for name in names])
        for name, timing in results:
            timings[name] = timing
            print("  %s: %.2f s wall, %d events (%.0f events/s), %d txns"
                  % (name, timing.wall_seconds, timing.events_processed,
                     timing.events_per_second,
                     timing.transactions_completed), flush=True)
        names = []
    for name in names:
        print("running %s%s ..." % (name, " (quick)" if args.quick else ""),
              flush=True)
        hub = None
        if observing:
            from repro.obs import ObservabilityHub
            hub = ObservabilityHub.create(
                tracing=args.trace is not None,
                telemetry=args.telemetry_json is not None,
                snapshot_interval_s=5.0 if args.telemetry_json else None,
            )
        timing: ScenarioTiming = (SCENARIOS[name](args.quick, hub)
                                  if hub is not None
                                  else SCENARIOS[name](args.quick))
        timings[name] = timing
        if hub is not None:
            suffix = "" if len(names) == 1 else "." + name
            if args.trace and hub.tracer is not None:
                path = _suffixed(args.trace, suffix)
                hub.export_trace(path)
                print("  trace written to %s (%d events)"
                      % (path, hub.tracer.event_count), flush=True)
            if args.telemetry_json and hub.registry is not None:
                path = _suffixed(args.telemetry_json, suffix)
                hub.export_telemetry(path)
                print("  telemetry written to %s" % path, flush=True)
        print("  %.2f s wall, %d events (%.0f events/s), %d txns, %.1f tps"
              % (timing.wall_seconds, timing.events_processed,
                 timing.events_per_second, timing.transactions_completed,
                 timing.throughput_tps), flush=True)

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


def _run_dsan(names, quick: bool) -> int:
    """Double-run every scenario under the determinism sanitizer."""
    from repro.analysis.dsan import check_determinism

    from benchmarks.perf.scenarios import SCENARIOS as scenarios

    failures = 0
    for name in names:
        print("dsan-checking %s%s ..." % (name, " (quick)" if quick else ""),
              flush=True)

        def run(session, _name=name):
            scenarios[_name](quick, session)

        report = check_determinism(run)
        print("  " + report.format().replace("\n", "\n  "), flush=True)
        if not report.deterministic:
            failures += 1
    return 1 if failures else 0


def _run_one(name: str, quick: bool):
    """Module-level worker so scenario runs pickle across a process pool."""
    return name, SCENARIOS[name](quick)


if __name__ == "__main__":
    sys.exit(main())
