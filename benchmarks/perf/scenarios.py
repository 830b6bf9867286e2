"""Perf-harness scenarios: representative paper-scale workloads, timed.

Each scenario is a callable ``(quick: bool, observer=None) -> ScenarioTiming``.
``quick`` shrinks the scenario for the CI smoke job; the committed
``BENCH_*.json`` trajectories are produced with ``quick=False``.
``observer`` is an optional hub or dsan session attached to the scenario's
cluster (microbenchmarks with no cluster accept and ignore it), so
``run.py --trace`` and ``run.py --dsan`` can cover any scenario.

Scenarios:

* ``midsize-malb`` -- the mid-size TPC-W/MALB-SC scenario shared with the
  determinism golden test (tests/sim/test_determinism_golden.py).  This is
  the CI smoke scenario: ~1 s of wall clock.
* ``fig6-dynamic`` -- the Figure 6 dynamic-reconfiguration experiment at
  paper scale (16 replicas, 1200 simulated seconds, three mix phases); the
  headline benchmark for the hot-path optimisations.
* ``flash-crowd`` -- the elasticity flash crowd (autoscaler, crash plus
  online recovery, certifier fail-over); exercises membership churn paths.
* ``certifier-micro`` -- certification-heavy microbenchmark: hundreds of
  thousands of certifications against one Certifier with periodic log
  truncation, isolating the inverted-index conflict check from the rest of
  the simulator.
* ``certifier-batch`` -- a pre-generated request stream issued through
  ``certify_batch`` the way the proxies batch it (several requests per round
  trip, each batch's response piggybacking the writesets committed since the
  requesting replica's applied version).  Only certification is timed,
  piggyback included, with GC quiesced; min of three runs.
* ``storage-micro`` -- the storage layer alone: ``DatabaseEngine.execute``
  over a pre-drawn TPC-W shopping stream on a MidDB catalog with a 442 MB
  buffer pool (512 MB minus the 70 MB the paper reserves), with every eight
  writesets it produces applied back through ``apply_writesets_fast``.  No
  event loop; GC quiesced; min of three runs; executes/s under ``extra``.
* ``eventloop-micro`` -- the event loop alone: a pre-drawn stream of
  delays and no-op bound methods pushed through ``EventQueue.push``
  and drained with ``Simulator.run_until``, with a few thousand events
  pending at a time as in a cluster run.  No cluster; GC quiesced; min of
  three runs; events/s under ``extra``.
* ``dispatch-micro`` -- routing-bound microbenchmark: MALB dispatch/complete
  cycles against a high-replica-count cluster view (TPC-W type catalogue,
  48 replicas), with periodic rebalances invalidating the candidate cache,
  and no engine or event loop in the way.  Isolates the balancer dispatch
  path (the policy's ``dispatch`` + the RoutingTable accounting) that
  fig6 profiles showed dominating after PR 3.
* ``commit-fanout`` -- notification-path benchmark: a 48-replica cluster
  (16 quick) under the update-heavy TPC-W ordering mix, where every
  certification batch used to scan all replicas for lag-notification
  candidates.  With the certifier's lag-subscription index the per-batch
  cost is O(notified), so events/sec here should stay roughly flat as the
  replica count grows instead of degrading linearly.
* ``obs-overhead`` -- A/B measurement of the observability layer: the
  fig6-dynamic scenario bare versus with a full ObservabilityHub (tracing,
  telemetry, periodic snapshots) attached; the enabled-mode slowdown is
  reported under ``extra``.
* ``chaos-soak`` -- the seeded chaos campaign (repro.experiments.chaos):
  unreliable network with flaky-link windows, a duplicate burst, a
  replica-certifier partition, a crash storm and a certifier fail-over,
  followed by a full consistency-invariant audit.  The timing also asserts
  the campaign's correctness claims: zero invariant violations and zero
  lost certified updates.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from benchmarks.perf.harness import ScenarioTiming, time_cluster


def _midsize(quick: bool, observer=None) -> ScenarioTiming:
    from dataclasses import replace
    from repro.experiments.configs import golden_midsize_config
    from repro.experiments.runner import build_cluster
    config = golden_midsize_config()
    if quick:
        config = replace(config, duration_s=60.0, warmup_s=15.0)
    cluster = build_cluster(config)
    if observer is not None:
        cluster.attach(observer)
    return time_cluster("midsize-malb", cluster,
                        duration_s=config.duration_s, warmup_s=config.warmup_s)


def _fig6_dynamic(quick: bool, observer=None) -> ScenarioTiming:
    from repro.experiments.configs import figure6_configs
    from repro.experiments.runner import build_cluster
    dynamic = figure6_configs(phase_length_s=120.0 if quick else 400.0)[0]
    cluster = build_cluster(dynamic)
    if observer is not None:
        cluster.attach(observer)
    return time_cluster("fig6-dynamic", cluster,
                        duration_s=dynamic.duration_s, warmup_s=dynamic.warmup_s)


def _flash_crowd(quick: bool, observer=None) -> ScenarioTiming:
    from repro.experiments.elasticity import flash_crowd_scenario, run_elastic_experiment
    scenario = flash_crowd_scenario(autoscale=True, with_faults=not quick)
    start = time.perf_counter()
    result = run_elastic_experiment(scenario, observer)
    wall = time.perf_counter() - start
    return ScenarioTiming(
        name="flash-crowd",
        wall_seconds=wall,
        sim_seconds=scenario.base.duration_s,
        events_processed=result.events_processed,
        transactions_completed=result.run.metrics.completed,
        throughput_tps=result.run.throughput_tps,
        extra={
            "peak_replicas": float(result.peak_replicas),
            "lost_certified_updates": float(result.lost_certified_updates),
            "surge_throughput_tps": result.surge_throughput_tps,
        },
    )


def _micro_shapes(tables):
    """One shared ``WriteShape`` per relation pair of a micro writeset.

    The certifier microbenchmarks hand-build two-item, one-page-per-item
    writesets, as the engine does from a compiled plan; passing the shared
    shape keeps each writeset from deriving its own.
    """
    from repro.storage.engine import WriteItem, WriteSet

    return {(a, b): WriteSet("micro", (WriteItem(a, (), 1), WriteItem(b, (), 1))).shape
            for a in tables for b in tables}


def _certifier_micro(quick: bool, observer=None) -> ScenarioTiming:
    from repro.replication.certifier import Certifier
    from repro.storage.engine import WriteItem, WriteSet

    requests = 50_000 if quick else 250_000
    key_space = 20_000
    tables = ["order_line", "orders", "cc_xacts", "item", "shopping_cart_line"]
    shapes = _micro_shapes(tables)
    rng = random.Random(42)
    certifier = Certifier()
    # Replicas certify against snapshots a bounded number of versions old;
    # small lags generate realistic conflict probabilities.
    start = time.perf_counter()
    for i in range(requests):
        items = tuple(
            WriteItem(relation=rng.choice(tables),
                      keys=(rng.randrange(key_space), rng.randrange(key_space)),
                      pages_dirtied=1)
            for _ in range(2)
        )
        writeset = WriteSet(transaction_type="micro", items=items,
                            shape=shapes[items[0].relation, items[1].relation])
        snapshot = max(0, certifier.current_version - rng.randrange(8))
        certifier.certify(writeset, snapshot_version=snapshot)
        if i % 1000 == 999:
            # Periodic truncation, as the cluster wires it in.
            certifier.truncate(max(0, certifier.current_version - 2000))
    wall = time.perf_counter() - start
    return ScenarioTiming(
        name="certifier-micro",
        wall_seconds=wall,
        sim_seconds=0.0,
        events_processed=requests,
        transactions_completed=certifier.stats.commits,
        throughput_tps=certifier.stats.commits / wall if wall > 0 else 0.0,
        extra={
            "aborts": float(certifier.stats.aborts),
            "retained_log_entries": float(len(certifier.log)),
            "conflict_index_entries": float(sum(
                len(writers) for writers in certifier._last_writer.values())),
        },
    )


def _certifier_batch(quick: bool, observer=None) -> ScenarioTiming:
    """Batched certification round trips, timing certification alone.

    The request stream is generated before the clock starts, so only the
    round trips (probe, commit, log append, piggyback, periodic truncation)
    are timed.  The mix models a partitioned OLTP workload: 90% of
    writesets stay inside one 64-key block of one relation (an order and
    its lines), 10% scatter across relations and blocks.  Each run uses a
    fresh certifier on the same stream with the collector quiesced, and
    the fastest of ``repeats`` runs is reported: min-of-N is the
    least-interference estimate for a deterministic workload.  The
    headline rate is certified requests per second.
    """
    import gc

    from repro.replication.certifier import Certifier
    from repro.storage.engine import WriteItem, WriteSet

    requests = 50_000 if quick else 250_000
    batch_size = 8              # what a busy proxy accumulates per round trip
    key_space = 20_000
    block = 64
    tables = ["order_line", "orders", "cc_xacts", "item", "shopping_cart_line"]
    shapes = _micro_shapes(tables)
    rng = random.Random(42)
    stream = []
    for _ in range(requests):
        if rng.random() < 0.9:
            relation = rng.choice(tables)
            base = rng.randrange(key_space // block) * block
            items = tuple(
                WriteItem(relation=relation,
                          keys=(base + rng.randrange(block),
                                base + rng.randrange(block)),
                          pages_dirtied=1)
                for _ in range(2)
            )
        else:
            items = tuple(
                WriteItem(relation=rng.choice(tables),
                          keys=(rng.randrange(key_space),
                                rng.randrange(key_space)),
                          pages_dirtied=1)
                for _ in range(2)
            )
        # Each request carries how many versions its snapshot lags behind.
        stream.append((WriteSet(transaction_type="micro", items=items,
                                shape=shapes[items[0].relation, items[1].relation]),
                       rng.randrange(8)))
    batches = [stream[i:i + batch_size] for i in range(0, requests, batch_size)]

    repeats = 1 if quick else 3
    best_wall = float("inf")
    for _ in range(repeats):
        certifier = Certifier()
        # Four proxies take turns batching; each tracks the applied version
        # its piggyback resumes from, as the replicas do.
        applied = [0, 0, 0, 0]
        issued = 0
        piggybacked = 0
        # The pre-generated stream lives for the whole scenario: freeze it
        # out of the collector and keep collection out of the timed region,
        # so every run sees the same allocator behaviour.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            start = time.perf_counter()
            for index, chunk in enumerate(batches):
                proxy = index % len(applied)
                floor = applied[proxy]
                version = certifier.current_version
                batch = [(writeset,
                          version - lag if version - lag > floor else floor)
                         for writeset, lag in chunk]
                _, piggyback = certifier.certify_batch(batch, since_version=floor)
                piggybacked += len(piggyback)
                if piggyback:
                    applied[proxy] = piggyback[-1].version
                issued += len(chunk)
                if issued % 1000 < batch_size:
                    certifier.truncate(max(0, min(applied) - 2000))
            wall = time.perf_counter() - start
        finally:
            gc.enable()
            gc.unfreeze()
        best_wall = min(best_wall, wall)
    stats = certifier.stats
    return ScenarioTiming(
        name="certifier-batch",
        wall_seconds=best_wall,
        sim_seconds=0.0,
        events_processed=requests,
        transactions_completed=stats.commits,
        throughput_tps=stats.commits / best_wall if best_wall > 0 else 0.0,
        extra={
            "requests_per_sec": requests / best_wall if best_wall > 0 else 0.0,
            "runs": float(repeats),
            "aborts": float(stats.aborts),
            "batches": float(stats.batches),
            "piggybacked_writesets": float(piggybacked),
            "retained_log_entries": float(len(certifier.log)),
        },
    )


def _storage_micro(quick: bool, observer=None) -> ScenarioTiming:
    """Transaction execution and writeset application, with no event loop.

    The transaction-type stream is drawn before the clock starts.  Every
    run uses a fresh engine and pool on the same stream, so each run
    repeats the same cold-start-to-thrashing trajectory: the shopping mix's
    hot sets exceed 442 MB, so the pool fills and then evicts on most
    misses.  The fastest of ``repeats`` runs is reported.
    """
    import gc

    from repro.storage.buffer_pool import BufferPool
    from repro.storage.catalog import Catalog
    from repro.storage.engine import DatabaseEngine
    from repro.storage.pages import mb
    from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw

    executions = 60_000 if quick else 300_000
    apply_batch = 8             # writesets per simulated pull
    spec = make_tpcw(DATABASE_SIZES["MidDB"])
    mix = spec.mix("shopping")
    rng = random.Random(7)
    stream = [spec.types[mix.sample(rng)] for _ in range(executions)]

    repeats = 1 if quick else 3
    best_wall = float("inf")
    for _ in range(repeats):
        pool = BufferPool(mb(512) - mb(70))
        engine = DatabaseEngine(Catalog(schema=spec.schema), pool,
                                rng=random.Random(11))
        execute = engine.execute
        apply_writesets = engine.apply_writesets_fast
        pending = []
        writesets_applied = 0
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            start = time.perf_counter()
            for txn_type in stream:
                _, _, _, writeset = execute(txn_type)
                if writeset is not None:
                    pending.append(writeset)
                    if len(pending) == apply_batch:
                        writesets_applied += apply_writesets(pending)[3]
                        pending = []
            wall = time.perf_counter() - start
        finally:
            gc.enable()
            gc.unfreeze()
        best_wall = min(best_wall, wall)
    stats = pool.stats
    return ScenarioTiming(
        name="storage-micro",
        wall_seconds=best_wall,
        sim_seconds=0.0,
        events_processed=executions,
        transactions_completed=executions,
        # No simulated clock: the machine-dependent rate goes under extra.
        throughput_tps=0.0,
        extra={
            "executes_per_sec": executions / best_wall if best_wall > 0 else 0.0,
            "runs": float(repeats),
            "writesets_applied": float(writesets_applied),
            "buffer_accesses": float(stats.accesses),
            "hit_ratio": stats.hit_ratio,
            "evicted_mb": stats.evicted_bytes / (1024.0 * 1024.0),
        },
    )


class _Component:
    """A stand-in event owner: its ``tick`` is the no-op callback."""

    __slots__ = ()

    def tick(self) -> None:
        pass


def _eventloop_micro(quick: bool, observer=None) -> ScenarioTiming:
    """Event-queue pushes and the ``run_until`` drain loop, nothing else.

    Delays (uniform in [0, 1) simulated seconds) and callbacks (bound
    ``tick`` methods of 16 components, cycled) are drawn before the clock
    starts.  Each round pushes ``round_size`` of them through ``push``
    at ``now + delay`` and then runs the simulator a quarter of a simulated
    second forward, so about four rounds' worth of events are pending at
    any time; a last ``run_until`` drains the rest.  Every run uses a fresh
    simulator on the same stream and the fastest of ``repeats`` runs is
    reported.
    """
    import gc

    from repro.sim.simulator import Simulator

    events = 100_000 if quick else 500_000
    round_size = 1000
    rng = random.Random(13)
    delays = [rng.random() for _ in range(events)]
    ticks = [_Component().tick for _ in range(16)]
    callbacks = [ticks[i % len(ticks)] for i in range(events)]
    rounds = [(delays[i:i + round_size], callbacks[i:i + round_size])
              for i in range(0, events, round_size)]

    repeats = 1 if quick else 3
    best_wall = float("inf")
    for _ in range(repeats):
        sim = Simulator()
        push = sim.queue.push
        run_until = sim.run_until
        peak = 0
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            start = time.perf_counter()
            for round_delays, round_callbacks in rounds:
                now = sim.now
                for delay, callback in zip(round_delays, round_callbacks):
                    push(now + delay, callback)
                if len(sim.queue) > peak:
                    peak = len(sim.queue)
                run_until(now + 0.25)
            run_until(sim.now + 1.0)
            wall = time.perf_counter() - start
        finally:
            gc.enable()
            gc.unfreeze()
        if sim.events_processed != events:
            raise AssertionError("eventloop-micro drained %d of %d events"
                                 % (sim.events_processed, events))
        best_wall = min(best_wall, wall)
    return ScenarioTiming(
        name="eventloop-micro",
        wall_seconds=best_wall,
        sim_seconds=sim.now,
        events_processed=events,
        transactions_completed=0,
        throughput_tps=0.0,
        extra={
            "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
            "runs": float(repeats),
            "queue_peak": float(peak),
        },
    )


def _dispatch_micro(quick: bool, observer=None) -> ScenarioTiming:
    from collections import deque

    from repro.core.grouping import GroupingMethod
    from repro.core.malb import MemoryAwareLoadBalancer
    from repro.core.routing import RoutingTable
    from repro.storage.catalog import Catalog
    from repro.storage.pages import mb
    from repro.storage.planner import QueryPlanner
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw

    replicas = 16 if quick else 48
    requests = 60_000 if quick else 300_000
    spec = make_tpcw(DATABASE_SIZES["MidDB"])

    class _View:
        """ClusterView over a routing table, with no simulator behind it."""

        def __init__(self) -> None:
            self.routing = RoutingTable()
            for rid in range(replicas):
                self.routing.add_replica(rid)
            self._catalog = Catalog(schema=spec.schema)
            self._planner = QueryPlanner(catalog=self._catalog)

        def replica_memory_bytes(self):
            return mb(512) - mb(70)

        def catalog(self):
            return self._catalog

        def planner(self):
            return self._planner

        def workload(self):
            return spec

    view = _View()
    balancer = MemoryAwareLoadBalancer(method=GroupingMethod.MALB_SC)
    balancer.attach(view)
    generator = WorkloadGenerator.constant(spec, "ordering", seed=11)
    generator.sample_types(0.0, 2000)
    balancer.observe_mix(generator.drain_type_counts())

    routing = view.routing
    inflight = deque()
    window = 12 * replicas          # closed-loop-ish outstanding bound
    rebalance_every = 5_000         # periodic work invalidates the caches
    completed = 0
    start = time.perf_counter()
    for i in range(requests):
        txn_type = generator.next_type(0.0)
        rid = balancer.dispatch(txn_type)
        routing.on_dispatch(rid)
        inflight.append(rid)
        if len(inflight) >= window:
            routing.on_complete(inflight.popleft())
            completed += 1
        if i % rebalance_every == rebalance_every - 1:
            balancer.ingest_mix_counts(generator.drain_type_counts())
            balancer.periodic(now=i * 0.002)
    wall = time.perf_counter() - start
    return ScenarioTiming(
        name="dispatch-micro",
        wall_seconds=wall,
        sim_seconds=0.0,
        events_processed=requests,
        transactions_completed=completed,
        # No simulated clock here, so there is no meaningful tps; the
        # wall-clock dispatch rate goes under extra (machine-dependent, like
        # events_per_second) instead of polluting a result field that
        # cross-PR BENCH comparisons expect to be stable.
        throughput_tps=0.0,
        extra={
            "dispatches_per_second": requests / wall if wall > 0 else 0.0,
            "replicas": float(replicas),
            "groups": float(len(balancer.groups)),
            "allocator_version": float(balancer.allocator.version),
        },
    )


def _commit_fanout(quick: bool, observer=None) -> ScenarioTiming:
    from repro.core.baselines import LeastConnectionsBalancer
    from repro.replication.cluster import ClusterConfig, ReplicatedCluster
    from repro.storage.pages import mb
    from repro.workloads.tpcw import DATABASE_SIZES, make_tpcw

    replicas = 16 if quick else 48
    duration_s = 40.0 if quick else 120.0
    spec = make_tpcw(DATABASE_SIZES["MidDB"])
    config = ClusterConfig(
        num_replicas=replicas,
        replica_ram_bytes=mb(512),
        clients_per_replica=8,
        think_time_s=0.5,
        seed=5,
    )
    cluster = ReplicatedCluster(workload=spec,
                                balancer=LeastConnectionsBalancer(),
                                config=config, mix="ordering")
    if observer is not None:
        cluster.attach(observer)
    timing = time_cluster("commit-fanout", cluster,
                          duration_s=duration_s, warmup_s=10.0)
    stats = cluster.certifier.stats
    timing.extra["replicas"] = float(replicas)
    timing.extra["certified_commits"] = float(stats.commits)
    timing.extra["notifications_sent"] = float(stats.notifications_sent)
    return timing


def _obs_overhead(quick: bool, observer=None) -> ScenarioTiming:
    """A/B measurement of the tracing overhead (the PR 6 acceptance number).

    Runs the fig6-dynamic scenario twice -- once bare, once with a full
    ObservabilityHub (tracing + telemetry + periodic snapshots) attached --
    and reports the enabled-mode slowdown.  The returned headline numbers
    (events, wall) are the *baseline* run's, so the smoke floor keeps
    guarding the disabled path; the traced run's numbers go under
    ``extra``.  ``observer`` is ignored: this scenario builds its own hub.
    """
    from repro.experiments.configs import figure6_configs
    from repro.experiments.runner import build_cluster
    from repro.obs import ObservabilityHub

    dynamic = figure6_configs(phase_length_s=120.0 if quick else 400.0)[0]

    baseline = build_cluster(dynamic)
    timing = time_cluster("obs-overhead", baseline,
                          duration_s=dynamic.duration_s,
                          warmup_s=dynamic.warmup_s)

    traced_cluster = build_cluster(dynamic)
    hub = ObservabilityHub(snapshot_interval_s=5.0)
    traced_cluster.attach(hub)
    traced = time_cluster("obs-overhead-traced", traced_cluster,
                          duration_s=dynamic.duration_s,
                          warmup_s=dynamic.warmup_s)

    base_eps = timing.events_per_second
    traced_eps = traced.events_per_second
    timing.extra.update({
        "baseline_events_per_second": round(base_eps, 1),
        "traced_events_per_second": round(traced_eps, 1),
        "traced_wall_seconds": traced.wall_seconds,
        "overhead_pct": (100.0 * (base_eps / traced_eps - 1.0)
                         if traced_eps > 0 else 0.0),
        "trace_events": float(hub.tracer.event_count),
        "telemetry_snapshots": float(len(hub.registry.snapshots)),
        "stage_reconcile_error": hub.tracer.stages.reconcile_error(),
    })
    return timing


def _chaos_soak(quick: bool, observer=None) -> ScenarioTiming:
    """The seeded chaos campaign, timed and self-checking.

    Unlike the other scenarios this one asserts its correctness claims --
    a chaos soak that loses a certified update or leaves the log out of
    order must fail the harness, not just run slower.
    """
    from repro.experiments.chaos import chaos_soak_config, run_chaos

    config = chaos_soak_config(severity=0.6, seed=1,
                               duration_s=120.0 if quick else 240.0)
    start = time.perf_counter()
    result = run_chaos(config, observer)
    wall = time.perf_counter() - start
    result.report.raise_if_violated()
    if result.lost_certified_updates:
        raise AssertionError("chaos soak lost %d certified updates"
                             % result.lost_certified_updates)
    return ScenarioTiming(
        name="chaos-soak",
        wall_seconds=wall,
        sim_seconds=config.base.duration_s,
        events_processed=result.events_processed,
        transactions_completed=result.run.metrics.completed,
        throughput_tps=result.run.throughput_tps,
        extra={
            "severity": config.severity,
            "invariants_checked": float(sum(result.report.checked.values())),
            "faults_injected": float(len(result.faults)),
            "messages_dropped": float(result.net.get("dropped", 0)),
            "messages_duplicated": float(result.net.get("duplicated", 0)),
            "rpc_timeouts": float(result.rpc["timeouts"]),
            "rpc_retries": float(result.rpc["retries"]),
            "certifier_dedup_hits": float(result.rpc["dedup_hits"]),
            "shed_unreachable": float(result.shed_unreachable),
            "partition_window_tps": result.partition_window_tps,
            "recovery_window_tps": result.recovery_window_tps,
        },
    )


SCENARIOS: Dict[str, Callable[..., ScenarioTiming]] = {
    "midsize-malb": _midsize,
    "fig6-dynamic": _fig6_dynamic,
    "flash-crowd": _flash_crowd,
    "certifier-micro": _certifier_micro,
    "certifier-batch": _certifier_batch,
    "storage-micro": _storage_micro,
    "eventloop-micro": _eventloop_micro,
    "commit-fanout": _commit_fanout,
    "dispatch-micro": _dispatch_micro,
    "obs-overhead": _obs_overhead,
    "chaos-soak": _chaos_soak,
}
