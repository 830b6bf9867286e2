"""Tests for the at-least-once certification RPC and graceful degradation.

Covers the certifier-side idempotent dedup cache (fresh / duplicate / stale
request handling, window eviction, fail-over survival), the replica-side
timeout/retry/shed machinery over unreliable channels, and the cluster-level
degradation contract: a partitioned replica sheds update transactions as
``certifier-unreachable`` while its read-only transactions keep committing.
"""

from repro.core.baselines import LeastConnectionsBalancer
from repro.net.channel import ChannelConfig
from repro.net.invariants import ConsistencyChecker
from repro.replication import replica as replica_module
from repro.replication.certifier import RPC_DEDUP_WINDOW, Certifier
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.replication.replica import MAX_CONCURRENCY, Replica
from repro.replication.writeset import WriteItem, WriteSet
from repro.sim.metrics import MetricsCollector
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine
from repro.storage.pages import mb

from tests.conftest import count_completions, drain, make_tiny_workload


def ws(key, origin=0):
    return WriteSet(
        transaction_type="T",
        items=(WriteItem(relation="orders", keys=(key,), pages_dirtied=1),),
        origin_replica=origin)


def make_cluster(replicas=3, link=None, mix="balanced",
                 clients_per_replica=4, **kwargs):
    """A networked cluster; every link runs with ``link`` from the start."""
    config = ClusterConfig(
        num_replicas=replicas, replica_ram_bytes=mb(128),
        clients_per_replica=clients_per_replica, think_time_s=0.1, seed=2,
        log_truncation_interval_s=0.0, network=True, **kwargs)
    cluster = ReplicatedCluster(workload=make_tiny_workload(),
                                balancer=LeastConnectionsBalancer(),
                                config=config, mix=mix)
    if link is not None:
        for replica_id in cluster.replica_ids():
            cluster.network.degrade(replica_id, link)
    return cluster


def quiesce_and_audit(cluster, checker, duration_s):
    cluster.sim.schedule_at(duration_s - 6.0,
                            lambda: cluster.clients.set_active_clients(0))
    run = cluster.run(duration_s=duration_s, warmup_s=2.0)
    if cluster.network is not None:
        cluster.network.heal_all()
    for replica in cluster.replicas.values():
        replica.pull_updates()
    checker.check().raise_if_violated()
    return run


# ----------------------------------------------------------------------
# Certifier-side dedup cache semantics
# ----------------------------------------------------------------------
def test_certify_rpc_fresh_request_certifies_and_caches():
    certifier = Certifier()
    results, piggyback = certifier.certify_rpc(
        origin_replica=0, request_id=1, requests=[(ws(1), 0)], since_version=0)
    assert len(results) == 1
    assert certifier.current_version == 1
    assert certifier.stats.dedup_hits == 0


def test_certify_rpc_duplicate_returns_cached_results_without_recertifying():
    certifier = Certifier()
    first, _ = certifier.certify_rpc(0, 1, [(ws(1), 0)], 0)
    version = certifier.current_version
    again, piggyback = certifier.certify_rpc(0, 1, [(ws(1), 0)], 0)
    assert again is first                       # the cached decision, verbatim
    assert certifier.current_version == version  # nothing re-certified
    assert certifier.stats.dedup_hits == 1
    # The piggyback is fresh, not cached: a duplicate still advances the
    # requester's view of the log.
    assert [e.version for e in piggyback] == [1]


def test_certify_rpc_stale_request_is_refused():
    certifier = Certifier()
    # Advance the per-origin window far enough to evict request 1.
    for rid in range(1, RPC_DEDUP_WINDOW + 2):
        certifier.certify_rpc(0, rid, [(ws(rid), certifier.current_version)], 0)
    version = certifier.current_version
    results, piggyback = certifier.certify_rpc(0, 1, [(ws(999), 0)], 0)
    assert results is None
    assert piggyback == []
    assert certifier.current_version == version
    assert certifier.stats.stale_requests == 1


def test_certify_rpc_dedup_windows_are_per_origin():
    certifier = Certifier()
    a, _ = certifier.certify_rpc(0, 1, [(ws(1, origin=0), 0)], 0)
    b, _ = certifier.certify_rpc(1, 1, [(ws(2, origin=1), 0)], 0)
    assert certifier.current_version == 2       # same id, different origins
    assert certifier.stats.dedup_hits == 0
    again, _ = certifier.certify_rpc(1, 1, [(ws(2, origin=1), 0)], 0)
    assert again is b
    assert certifier.stats.dedup_hits == 1


def test_certify_rpc_window_is_bounded():
    certifier = Certifier()
    for rid in range(1, RPC_DEDUP_WINDOW * 3):
        certifier.certify_rpc(0, rid, [(ws(rid), certifier.current_version)], 0)
    assert len(certifier.rpc_cache[0].window) <= RPC_DEDUP_WINDOW


class LoseFirstResponse:
    """A loss-free channel except that it drops the first response leg (the
    second message sent), so the replica times out and retransmits a request
    the certifier has already decided."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = 0

    def deliver(self, latency_s, message):
        self.sent += 1
        if self.sent != 2:
            self.sim.schedule(latency_s, message)

    def pull_allowed(self):
        return True


def test_retransmission_carries_the_writesets_execute_built():
    sim, certifier = Simulator(), Certifier()
    workload = make_tiny_workload()
    engine = DatabaseEngine(Catalog(schema=workload.schema), BufferPool(mb(64)))
    replica = Replica(replica_id=2, sim=sim, engine=engine,
                      resources=ReplicaResources.create(sim, 2),
                      certifier=certifier, channel=LoseFirstResponse(sim))
    replica.metrics = MetricsCollector()
    built, arrivals = [], []
    execute, certify_rpc = engine.execute, certifier.certify_rpc

    def recording_execute(txn_type):
        plan, random_miss, sequential_miss, writeset = execute(txn_type)
        built.append(writeset)
        return plan, random_miss, sequential_miss, writeset

    def recording_certify_rpc(origin, request_id, requests, since_version):
        arrivals.append((request_id, [writeset for writeset, _ in requests]))
        return certify_rpc(origin, request_id, requests, since_version)

    engine.execute = recording_execute
    certifier.certify_rpc = recording_certify_rpc
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True]
    assert replica.rpc_timeouts == 1 and certifier.stats.dedup_hits == 1
    # First send and retransmission carry the same objects: the one
    # writeset execute built, which is also what the log holds.
    (first_id, first), (again_id, again) = arrivals
    assert first_id == again_id
    assert len(built) == len(first) == len(again) == 1
    assert first[0] is again[0] is built[0]
    assert len(certifier.log) == 1 and certifier.log[0].writeset is built[0]
    assert built[0].origin_replica == 2


# ----------------------------------------------------------------------
# Fail-over: the dedup cache survives on the replicated certifier
# ----------------------------------------------------------------------
def test_failover_answers_inflight_batch_from_cache():
    # Satellite: a batch certified by the old leader, retried (duplicate
    # delivery, timeout) across a fail-over, must be answered idempotently
    # by the new leader -- same results object, nothing certified twice.
    cert = Certifier(backups=2)
    first, _ = cert.certify_rpc(0, 1, [(ws(1), 0)], 0)
    version = cert.current_version
    promoted_log = cert.backups[0].log
    cert.fail_over()
    assert cert.log is promoted_log
    again, piggyback = cert.certify_rpc(0, 1, [(ws(1), 0)], 0)
    assert again is first
    assert cert.current_version == version
    assert cert.log_is_total_order()
    # The dedup-hit counter survives the fail-over with the cache.
    assert cert.stats.dedup_hits == 1
    # A genuinely new request still certifies normally afterwards.
    fresh, _ = cert.certify_rpc(0, 2, [(ws(2), cert.current_version)], 0)
    assert cert.current_version == version + 1


def test_failover_transfers_accumulated_dedup_counters():
    cert = Certifier(backups=1)
    cert.certify_rpc(0, 1, [(ws(1), 0)], 0)
    cert.certify_rpc(0, 1, [(ws(1), 0)], 0)     # dedup hit on the old leader
    assert cert.stats.dedup_hits == 1
    cert.fail_over()
    assert cert.stats.dedup_hits == 1           # not reset by the promotion


# ----------------------------------------------------------------------
# Cluster-level RPC behaviour over channels
# ----------------------------------------------------------------------
def test_perfect_channel_run_commits_without_retries():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    run = quiesce_and_audit(cluster, checker, 30.0)
    assert run.metrics.completed > 50
    assert sum(r.rpc_timeouts for r in cluster.replicas.values()) == 0
    assert cluster.certifier.stats.dedup_hits == 0


def test_lossy_channel_retries_until_certified():
    cluster = make_cluster(link=ChannelConfig(drop_probability=0.25))
    checker = ConsistencyChecker(cluster)
    run = quiesce_and_audit(cluster, checker, 30.0)
    replicas = cluster.replicas.values()
    assert sum(r.rpc_timeouts for r in replicas) > 0
    assert sum(r.rpc_retries for r in replicas) > 0
    assert run.metrics.updates_completed > 0


def test_duplicating_channel_hits_the_dedup_cache():
    cluster = make_cluster(link=ChannelConfig(duplicate_probability=0.5))
    checker = ConsistencyChecker(cluster)
    quiesce_and_audit(cluster, checker, 30.0)
    assert cluster.certifier.stats.dedup_hits > 0


def test_partitioned_replica_sheds_updates_but_serves_reads():
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    completions = count_completions(cluster)
    during = {}

    def start_partition():
        cluster.network.partition(0)
        during["before"] = dict(completions.by_replica)

    def end_partition():
        during["after"] = dict(completions.by_replica)
        cluster.network.heal(0)

    cluster.sim.schedule_at(10.0, start_partition)
    cluster.sim.schedule_at(22.0, end_partition)
    run = quiesce_and_audit(cluster, checker, 36.0)

    replica = cluster.replicas[0]
    assert replica.shed_unreachable > 0
    assert run.metrics.abort_reasons.get("certifier-unreachable", 0) > 0
    # Read-only transactions on the partitioned replica kept committing.
    assert during["after"].get(0, 0) > during["before"].get(0, 0)
    # Shedding is degradation, not certification aborting: the golden-pinned
    # certification-abort counter must not absorb unreachable sheds.
    assert replica.shed_unreachable not in (None, 0)


def test_attempt_horizon_separates_delay_from_shedding():
    # RPC_MAX_ATTEMPTS transmissions span about 0.45 s of timeouts plus
    # backoff: a shorter partition only delays certification, a longer one
    # strands the round trip and sheds its batch.
    cluster = make_cluster()
    checker = ConsistencyChecker(cluster)
    network = cluster.network
    replica = cluster.replicas[1]
    after_short = {}

    def record_short():
        after_short["shed"] = replica.shed_unreachable
        after_short["retries"] = replica.rpc_retries

    cluster.sim.schedule_at(10.0, lambda: network.partition(1))
    cluster.sim.schedule_at(10.2, lambda: network.heal(1))
    cluster.sim.schedule_at(15.0, record_short)
    cluster.sim.schedule_at(18.0, lambda: network.partition(1))
    cluster.sim.schedule_at(20.0, lambda: network.heal(1))
    quiesce_and_audit(cluster, checker, 30.0)
    assert after_short["shed"] == 0
    assert after_short["retries"] > 0
    assert replica.shed_unreachable > 0


def test_certification_queue_never_outgrows_the_admission_slots(monkeypatch):
    # Every queued context holds an admission slot and so does the batch in
    # flight, so the queue behind a stranded round trip stays below
    # MAX_CONCURRENCY even with the replica's link down for seconds.
    monkeypatch.setattr(replica_module, "RPC_MAX_ATTEMPTS", 1000)
    cluster = make_cluster(replicas=2, clients_per_replica=16)
    replica = cluster.replicas[0]
    enqueue = replica._enqueue_certification
    queue_lengths = []
    certifying = []

    def sampled_enqueue(ctx):
        enqueue(ctx)
        queue_lengths.append(len(replica._cert_queue))
        certifying.append(len(replica._cert_queue) + len(replica._rpc_batch))

    replica._enqueue_certification = sampled_enqueue
    cluster.sim.schedule_at(5.0, lambda: cluster.network.partition(0))
    cluster.sim.schedule_at(15.0, lambda: cluster.network.heal(0))
    cluster.run(duration_s=20.0)
    assert max(queue_lengths) <= MAX_CONCURRENCY - 1
    # The partition saturated the admission slots with updates awaiting
    # certification, so the bound was under full pressure.
    assert max(certifying) == MAX_CONCURRENCY
    assert replica.shed_unreachable == 0


def test_request_ids_stay_monotonic_across_crash_and_restore():
    cluster = make_cluster()
    ConsistencyChecker(cluster)
    cluster.start()
    cluster.sim.run_until(10.0)
    replica = cluster.replicas[1]
    issued_before = replica._next_request_id
    cluster.crash_replica(1)
    cluster.sim.run_until(15.0)
    cluster.restore_replica(1)
    cluster.sim.run_until(25.0)
    assert cluster.replicas[1] is replica
    assert replica._next_request_id >= issued_before
