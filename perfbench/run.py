"""The repo benchmark: time one paper-scale workload, check its outputs.

    python3 perfbench/run.py --workload fig6-dynamic --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and documented in ``README.md``.
One process, one thread.  With ``--trace 0`` the run reports the end-to-end
metrics (``run_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
also makes a separate traced run and reports the per-layer metrics instead.
Times are CPU seconds converted to reference-machine seconds by a
calibration loop interleaved with the measured work (see ``Calibration``).
Every simulation's outputs are checked against ``reference.json``; a
mismatch marks the result incorrect and exits 1.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: CPU seconds of one calibration chunk on the reference machine: the
#: 2-vCPU Intel Xeon VM the benchmark was defined on, at its typical speed.
CALIB_REF_S = 0.003
#: Measured CPU seconds between two calibration chunks (about 5% overhead).
CALIB_EVERY_S = 0.06
#: Timed set-ups before each simulation and after the last one.
SETUPS_PER_ROUND = 10
#: Simulated seconds per timed slice of ``sim.run_until``.
SLICE_S = 1.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def use_checkout_src() -> None:
    """Import the simulator from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no simulator sources at %s" % SRC)
    sys.path.insert(0, SRC)


def calib_chunk() -> float:
    """CPU seconds of a fixed pure-Python loop shaped like the simulator's
    work: tuple-keyed dict stores, string formatting and heap traffic."""
    start = time.process_time()
    table = {}
    heap = []
    for i in range(2000):
        key = (i * 7919) % 50021
        table[("rel%d" % (key % 37), key)] = i
        heapq.heappush(heap, ((key * 31) % 1009, i, key))
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.process_time() - start


class Calibration:
    """Calibration chunks interleaved with the measured work.

    On the shared machine the benchmark was defined on, the same simulation
    takes up to 1.7x longer in one minute than in the next.  A chunk runs
    after every ``CALIB_EVERY_S`` of measured CPU, so the chunks see the
    same machine as the work.  ``CALIB_REF_S / calib_s`` converts measured
    CPU seconds into reference-machine seconds.  On fig6-dynamic the
    distance between the quartiles of raw CPU time was 13-44% of the median
    in sets of five runs; that of the converted time was 4% over ten.
    """

    def __init__(self) -> None:
        calib_chunk()                   # first-use costs
        self.chunks = []
        self._since = CALIB_EVERY_S

    def tick(self, measured: float) -> None:
        """Account ``measured`` CPU seconds; run a chunk when one is due."""
        self._since += measured
        if self._since >= CALIB_EVERY_S:
            self._since = 0.0
            self.chunks.append(calib_chunk())

    @property
    def calib_s(self) -> float:
        return statistics.mean(self.chunks)


def timed_setup(config, samples):
    """Build and start a cluster; append the time it took.

    The sample is converted to reference-machine seconds by a calibration
    chunk run right after it: set-up takes milliseconds, so the chunk next to
    it sees the same machine.
    """
    from workloads import build_and_start
    gc.collect()
    start = time.process_time()
    cluster = build_and_start(config)
    elapsed = time.process_time() - start
    samples.append(elapsed * CALIB_REF_S / calib_chunk())
    return cluster


class Outcome:
    """What the runs of one invocation simulated, and whether it was right."""

    def __init__(self, name: str, seed: int) -> None:
        from workloads import load_reference
        self.name = name
        self.seed = seed
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.aborts = 0
        self.problems = []

    def check(self, cluster, label: str):
        """Fingerprint ``cluster``, check it, and count its operations."""
        from workloads import fingerprint, output_problems
        fp = fingerprint(cluster)
        self.problems += ["%s run: %s" % (label, problem) for problem in
                          output_problems(self.name, self.seed, fp, self.reference)]
        # An operation is one client transaction; it fails if the cluster
        # gives up on it.  A certification conflict retried to commit is
        # not a failure, only an aborted attempt.
        reasons = cluster.metrics.abort_reasons
        self.attempted += cluster.clients.requests_issued
        self.failed += sum(count for reason, count in reasons.items()
                           if reason != "certification-conflict")
        self.aborts += reasons.get("certification-conflict", 0)
        return fp

    @property
    def correct(self) -> bool:
        return not self.problems


def run_sliced(cluster, end: float, after_slice):
    """``sim.run_until(end)`` in ``SLICE_S`` steps; CPU seconds per step.

    ``after_slice`` gets each step's CPU seconds.  Stepping gives the same
    outputs as one call (the self-tests check it).
    """
    sim = cluster.sim
    slices = []
    for k in range(1, int(math.ceil(end / SLICE_S)) + 1):
        start = time.process_time()
        sim.run_until(min(k * SLICE_S, end))
        slices.append(time.process_time() - start)
        after_slice(slices[-1])
    return slices


def timed_runs(config, seconds: float, outcome: Outcome):
    """Simulate ``config`` end to end until ``seconds`` of CPU are measured.

    Set-up is timed ``SETUPS_PER_ROUND`` times before every simulation and
    after the last one, so its samples spread over the whole run.  Returns
    a ``(CPU seconds, calib_s)`` pair per simulation, every set-up sample
    (in reference seconds), and the last fingerprint.
    """
    timed_setup(config, [])                     # first-use caches
    runs, setups = [], []
    fp = None
    while not runs or sum(cpu for cpu, _ in runs) < seconds:
        for _ in range(SETUPS_PER_ROUND - 1):
            timed_setup(config, setups)
        cluster = timed_setup(config, setups)
        calibration = Calibration()
        cpu = sum(run_sliced(cluster, config.duration_s, calibration.tick))
        runs.append((cpu, calibration.calib_s))
        fp = outcome.check(cluster, "timed")
        del cluster
    for _ in range(SETUPS_PER_ROUND):
        timed_setup(config, setups)
    return runs, setups, fp


def traced_run(config, outcome: Outcome, untraced_fp, run_s: float,
               run_cpu_s: float, calib_s: float):
    """The separate traced run: per-layer spans, counts and slice times.

    ``run_s`` is the untraced end-to-end metric; ``run_cpu_s`` and
    ``calib_s`` are the raw CPU seconds behind it.
    """
    from spans import LAYERS, SpanRecorder, instrument
    from workloads import build_and_start

    recorder = SpanRecorder()
    gc.collect()
    with instrument(recorder):
        cluster = build_and_start(config)
        pools = [r.engine.buffer_pool.stats for r in cluster.replicas.values()]
        before = [(s.bytes_requested, s.bytes_missed, s.evicted_bytes) for s in pools]
        certifier = cluster.certifier
        recorder.reset()
        log_peak = [0]

        def after_slice(_cpu):
            log_peak[0] = max(log_peak[0], len(certifier.log))

        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        slices = run_sliced(cluster, config.duration_s, after_slice)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
    fp = outcome.check(cluster, "traced")
    if fp != untraced_fp:
        outcome.problems.append("traced fingerprint %r differs from untraced %r"
                                % (fp, untraced_fp))

    layer_total = sum(recorder.layer_self_s.values())
    residual = wall - recorder.root_s
    reconcile_error = abs(layer_total + residual - wall)
    if reconcile_error > 1e-6 * wall or residual < 0:
        outcome.problems.append(
            "layer self-times %.9f + residual %.9f do not reconcile with run_s %.9f"
            % (layer_total, residual, wall))

    requested = sum(s.bytes_requested for s in pools) - sum(b[0] for b in before)
    missed = sum(s.bytes_missed for s in pools) - sum(b[1] for b in before)
    evicted = sum(s.evicted_bytes for s in pools) - sum(b[2] for b in before)
    stats = certifier.stats
    calls = recorder.calls
    items = recorder.items
    own = recorder.self_s
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    events = cluster.sim.events_processed
    put("sim.events", events, "count")
    put("sim.events_per_s", events / run_s, "1/s")
    put("sim.slice_p99_ms", 1000.0 * statistics.quantiles(slices, n=100)[98], "ms")
    put("sim.queue_peak", recorder.queue_peak, "count")
    for layer in LAYERS:
        put(layer + ".self_s", recorder.layer_self_s.get(layer, 0.0), "s")
        put(layer + ".share", recorder.layer_self_s.get(layer, 0.0) / wall, "ratio")
    for span in ("storage.execute", "storage.apply", "storage.buffer",
                 "replication.pull", "core.dispatch", "core.periodic",
                 "workloads.next_type"):
        put(span + ".calls", calls.get(span, 0), "count")
    for span in ("storage.execute", "storage.apply", "storage.buffer",
                 "replication.certify", "replication.pull", "replication.replica",
                 "core.dispatch", "core.periodic"):
        put(span + ".self_s", own.get(span, 0.0), "s")
    put("storage.apply.writesets", items.get("storage.apply", 0), "count")
    put("storage.buffer.hit_ratio",
        1.0 - missed / requested if requested > 0 else 1.0, "ratio")
    put("storage.buffer.evicted_mb", evicted / (1024.0 * 1024.0), "MB")
    put("storage.read_kb_per_txn", fp["read_kb_per_txn"], "KB/txn")
    put("storage.write_kb_per_txn", fp["write_kb_per_txn"], "KB/txn")
    put("replication.certify.batches", calls.get("replication.certify", 0), "count")
    put("replication.certify.requests", items.get("replication.certify", 0), "count")
    put("replication.certify.commit_ratio",
        stats.commits / stats.requests if stats.requests else 1.0, "ratio")
    put("replication.apply.writesets", items.get("replication.apply", 0), "count")
    put("replication.notify.sent", stats.notifications_sent, "count")
    put("replication.log_retained", log_peak[0], "count")
    put("trace.run_s", wall, "s")
    put("trace.residual_s", residual, "s")
    put("trace.overhead", cpu / run_cpu_s - 1.0, "ratio")
    put("harness.calib_s", calib_s, "s")
    put("harness.run_cpu_s", run_cpu_s, "s")
    put("harness.run_per_calib", run_cpu_s / calib_s, "ratio")

    summary = {
        "workload": outcome.name, "seed": outcome.seed,
        "run_s": wall, "cpu_s": cpu, "untraced_run_cpu_s": run_cpu_s,
        "metrics": metrics,
        "spans": {span: {"calls": calls[span], "self_s": own[span],
                         "items": items.get(span)} for span in sorted(calls)},
        "layers": dict(sorted(recorder.layer_self_s.items())),
        "slice_cpu_s": slices,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (outcome.name, outcome.seed))
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1)
    print("trace summary written to", os.path.relpath(path, ROOT))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="simulate the workload again until this much "
                             "CPU time is measured (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_src()
    from workloads import WORKLOADS, sim_seed, workload_config
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (one of %s)"
                     % (args.workload, ", ".join(WORKLOADS)))

    config = workload_config(args.workload, args.seed)
    outcome = Outcome(args.workload, args.seed)
    runs, setups, fp = timed_runs(config, args.seconds, outcome)
    run_cpu_s = statistics.mean(cpu for cpu, _ in runs)
    calib_s = statistics.mean(calib for _, calib in runs)
    end_to_end = {
        "run_s": statistics.median(cpu * CALIB_REF_S / calib for cpu, calib in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print("workload %s, seed %d (simulator seed %d): %d simulation(s), %d set-ups"
          % (args.workload, args.seed, sim_seed(args.seed), len(runs), len(setups)))
    print("outputs: %s" % json.dumps(fp, sort_keys=True))
    for cpu, calib in runs:
        print("simulation: %.4f CPU s, calib_s %.6f (reference %.6f) -> %.4f s"
              % (cpu, calib, CALIB_REF_S, cpu * CALIB_REF_S / calib))
    print("run CPU / calib_s = %.1f (ungated)" % (run_cpu_s / calib_s))
    for name, value in end_to_end.items():
        print("%-12s %14.6f %s" % (name, value, END_TO_END_UNITS[name]))

    if args.trace:
        metrics = traced_run(config, outcome, fp, end_to_end["run_s"], run_cpu_s,
                             calib_s)
        for name, metric in metrics.items():
            print("%-36s %18.6f %s" % (name, metric["value"], metric["unit"]))
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    failed = outcome.failed
    if not outcome.correct:
        for problem in outcome.problems:
            print("OUTPUT CHECK FAILED:", problem)
        failed = outcome.attempted
    print("failed operations: %d of %d (%.4f%%); retried certification aborts: %d"
          % (failed, outcome.attempted, 100.0 * failed / max(1, outcome.attempted),
             outcome.aborts))
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
