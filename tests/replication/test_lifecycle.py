"""Tests for the transaction lifecycle state machine and certification batching.

Covers the PR 3 behaviour: per-replica batched certification round trips with
FIFO version order, the piggybacked writesets that let an aborted
transaction retry on a fresh snapshot without waiting for a periodic pull,
and epoch fencing of batched requests across a crash.
"""

import pytest

from repro.core.routing import RoutingTable
from repro.replication import replica as replica_module
from repro.replication.certifier import Certifier
from repro.replication.replica import MAX_RETRIES, Replica, TransactionContext
from repro.sim.metrics import MetricsCollector
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig, WriteItem, WriteSet
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.storage.relation import Schema, table
from repro.workloads.spec import Mix, WorkloadSpec, lookup, scan, transaction_type, write

from tests.conftest import drain, make_tiny_workload, step


def make_conflict_workload():
    """A workload whose single write type always touches the same key.

    ``key_space_per_page=1`` on a one-page relation pins every generated
    writeset key to 0, so any two update transactions conflict by
    construction -- certification outcomes become deterministic.
    """
    schema = Schema.from_relations(
        "conflict", [table("hot", PAGE_SIZE_BYTES), table("cold", mb(1))])
    types = {
        "Write": transaction_type(
            "Write", reads=[lookup("hot", pages=1)],
            writes=[write("hot", rows=1, pages_dirtied=1)],
            cpu_ms=1.0),
    }
    return WorkloadSpec(name="conflict", schema=schema, types=types,
                        mixes={"w": Mix("w", {"Write": 1})})


def make_fast_update_workload():
    """Updates whose execution (0.2 ms CPU) is much shorter than the 4 ms
    certification round trip, so concurrent submissions pile up at the
    batcher while a round trip is in flight."""
    schema = Schema.from_relations("fast", [table("t", mb(8))])
    types = {
        "Write": transaction_type(
            "Write", reads=[],
            writes=[write("t", rows=1, pages_dirtied=1)],
            cpu_ms=0.2),
    }
    return WorkloadSpec(name="fast", schema=schema, types=types,
                        mixes={"w": Mix("w", {"Write": 1})})


def make_stage_workload():
    """Three types that park in three different stages at t = 2 ms: an
    update certifying (0.2 ms CPU, warm pages, 4 ms round trip), a scan
    reading a cold relation from disk, and a 20 ms computation on the CPU."""
    schema = Schema.from_relations(
        "stages", [table("t", mb(1)), table("cold", mb(1))])
    types = {
        "Update": transaction_type(
            "Update", reads=[],
            writes=[write("t", rows=1, pages_dirtied=1)],
            cpu_ms=0.2),
        "Scan": transaction_type("Scan", reads=[scan("cold")], cpu_ms=0.1),
        "Compute": transaction_type("Compute", reads=[], cpu_ms=20.0),
    }
    return WorkloadSpec(name="stages", schema=schema, types=types,
                        mixes={"m": Mix("m", {"Update": 1})})


def make_replica(workload, replica_id=0, sim=None, certifier=None,
                 key_space_per_page=40):
    sim = sim or Simulator()
    certifier = certifier or Certifier()
    catalog = Catalog(schema=workload.schema)
    engine = DatabaseEngine(catalog=catalog, buffer_pool=BufferPool(mb(64)),
                            config=EngineConfig(key_space_per_page=key_space_per_page))
    replica = Replica(replica_id=replica_id, sim=sim, engine=engine,
                      resources=ReplicaResources.create(sim, replica_id),
                      certifier=certifier)
    replica.metrics = MetricsCollector()
    return sim, certifier, replica


def remote_writeset(table_name="hot", key=0, origin=99):
    return WriteSet(transaction_type="remote",
                    items=(WriteItem(relation=table_name, keys=(key,),
                                     pages_dirtied=1),),
                    origin_replica=origin)


def test_concurrent_updates_share_certification_round_trips():
    workload = make_fast_update_workload()
    sim, certifier, replica = make_replica(workload)
    # Warm the cache so execution is pure CPU (0.2 ms) and the submissions
    # overlap the 4 ms certification round trip instead of serializing on
    # cold-cache disk reads.
    replica.engine.buffer_pool.warm("t", mb(8))
    outcomes = []
    for _ in range(6):
        replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True] * 6
    assert certifier.stats.commits == 6
    # With one round trip outstanding per replica, six concurrent updates need
    # far fewer round trips than requests (the first departs alone, the rest
    # accumulate into shared batches).
    assert certifier.stats.batches < 6
    assert certifier.stats.requests == 6


def test_batched_certification_preserves_fifo_version_order():
    workload = make_fast_update_workload()
    sim, certifier, replica = make_replica(workload)
    versions_by_completion = []
    for _ in range(8):
        replica.submit(workload.type("Write"), submitted_at=0.0,
                       on_done=lambda ok: versions_by_completion.append(
                           certifier.current_version))
        # Stagger the submissions so they reach certification in txn-id
        # order while earlier round trips are still in flight.
        sim.run_until(sim.now + 0.0005)
    drain(sim)
    # All commit, versions are dense 1..8 and assigned in the order the
    # transactions reached certification (= submission order here): each
    # completion observes exactly one more committed version.
    assert certifier.current_version == 8
    assert [entry.version for entry in certifier.log] == list(range(1, 9))
    assert versions_by_completion == sorted(versions_by_completion)


def test_aborted_retry_commits_on_piggybacked_snapshot_without_pull():
    """The acceptance-criteria regression: an aborted transaction's retry
    must observe the writesets returned with its certification response.

    A conflicting writeset is committed at the certifier before the
    replica's transaction certifies.  The old code retried on the same
    stale snapshot (applied_version never advanced without a pull), burning
    every retry; with the piggyback the first retry runs at a fresh
    snapshot and commits.  No pull_updates call is ever made.
    """
    workload = make_conflict_workload()
    sim, certifier, replica = make_replica(workload, key_space_per_page=1)
    sent = record_certified_batches(replica)
    # Someone else commits the hot key first; this replica never pulls.
    assert certifier.certify(remote_writeset(), snapshot_version=0).committed
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True]
    # Exactly one abort (stale snapshot 0 vs the remote commit), then the
    # retry saw the piggybacked writeset and committed at snapshot >= 1.
    assert replica.metrics.aborts == 1
    assert certifier.stats.aborts == 1
    assert certifier.current_version == 2
    (committed, snapshot), = sent[-1]
    assert committed is certifier.log[-1].writeset and snapshot >= 1
    # The piggyback also applied the remote writeset itself.
    assert replica.applied_version == 2
    assert replica.writesets_applied == 1


def record_certified_batches(replica):
    """Wrap the direct round trip to record each batch's
    ``(ctx.writeset, ctx.snapshot)`` pairs as the replica sends them."""
    sent = []
    original = replica._complete_certification

    def recording(batch, epoch):
        sent.append([(ctx.writeset, ctx.snapshot) for ctx in batch])
        original(batch, epoch)

    replica._complete_certification = recording
    return sent


def test_log_entries_are_the_executed_writesets():
    """The certifier logs the very object ``execute`` built, stamped with
    this replica as origin: no copy is made on the way to certification."""
    workload = make_fast_update_workload()
    sim, certifier, replica = make_replica(workload, replica_id=3)
    sent = record_certified_batches(replica)
    outcomes = []
    for _ in range(6):
        replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True] * 6
    requests = [request for batch in sent for request in batch]
    assert len(certifier.log) == len(requests) == 6
    for entry, (writeset, snapshot) in zip(certifier.log, requests):
        assert entry.writeset is writeset
        assert writeset.origin_replica == replica.replica_id
        assert snapshot < entry.version


def test_retry_after_abort_certifies_a_new_writeset():
    workload = make_conflict_workload()
    sim, certifier, replica = make_replica(workload, key_space_per_page=1)
    sent = record_certified_batches(replica)
    assert certifier.certify(remote_writeset(), snapshot_version=0).committed
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True] and replica.metrics.aborts == 1
    (aborted, stale), (retried, fresh) = [batch[0] for batch in sent]
    # The retry re-executed: a different object, on the fresh snapshot.
    assert retried is not aborted
    assert (stale, fresh) == (0, 1)
    assert certifier.log[-1].writeset is retried
    assert all(entry.writeset is not aborted for entry in certifier.log)


def test_stale_retries_no_longer_burn_max_retries():
    """Without the piggyback every retry reran at snapshot 0 and the
    transaction failed after max_retries; now one abort suffices."""
    workload = make_conflict_workload()
    sim, certifier, replica = make_replica(workload, key_space_per_page=1)
    certifier.certify(remote_writeset(), snapshot_version=0)
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True]
    assert replica.metrics.aborts < MAX_RETRIES


def test_epoch_fencing_drops_batched_requests_without_leaking_slots():
    workload = make_tiny_workload()
    sim, certifier, replica = make_replica(workload)
    outcomes = []
    for _ in range(3):
        replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    # Run until the first round trip is in flight, then crash the replica.
    while not replica._cert_inflight:
        assert step(sim)
    replica.crash()
    drain(sim)
    # The batch was fenced: nothing reached the certifier, no outcome was
    # delivered, and the reset admission state holds no slots.
    assert outcomes == []
    assert certifier.stats.requests == 0
    assert replica.active == 0
    assert replica._cert_queue == []
    assert not replica._cert_inflight
    # After a restore the replica serves new work with fresh admission slots.
    replica.alive = True
    for _ in range(3):
        replica.submit(workload.type("Write"), submitted_at=sim.now, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True, True, True]
    assert replica.active == 0


def test_batch_limit_splits_oversized_batches(monkeypatch):
    monkeypatch.setattr(replica_module, "MAX_CERTIFICATION_BATCH", 2)
    workload = make_fast_update_workload()
    sim, certifier, replica = make_replica(workload)
    monkeypatch.setattr(replica_module, "MAX_CONCURRENCY", 16)
    outcomes = []
    for _ in range(8):
        replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True] * 8
    # No round trip carried more than the configured limit.
    assert certifier.stats.batches >= 4
    assert certifier.stats.requests == 8


def test_context_reaches_done_state():
    workload = make_tiny_workload()
    sim, certifier, replica = make_replica(workload)
    contexts = []
    original = replica._start

    def capture(ctx):
        contexts.append(ctx)
        original(ctx)

    replica._start = capture
    replica.submit(workload.type("Read"), submitted_at=0.0, on_done=lambda ok: None)
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=lambda ok: None)
    drain(sim)
    assert [ctx.state for ctx in contexts] == [TransactionContext.DONE] * 2
    # Contexts are slotted: no per-instance __dict__ on the hot path.
    assert not hasattr(contexts[0], "__dict__")


def test_crash_fails_every_pending_stage_once_in_dispatch_order():
    """A crash with a certification round trip, a disk read and a CPU
    completion all pending: fail_in_flight calls every client back exactly
    once, with False, in dispatch order, and the epoch fence drops the
    pending continuations (a late one would raise in ``_finish``)."""
    workload = make_stage_workload()
    sim, certifier, replica = make_replica(workload)
    replica.engine.buffer_pool.warm("t", mb(1))
    routing = RoutingTable()
    routing.add_replica(0)
    replica.routing = routing
    outcomes = []
    names = ("Update", "Scan", "Compute")
    for name in names:
        routing.on_dispatch(0)
        replica.submit(workload.type(name), submitted_at=0.0,
                       on_done=lambda ok, name=name: outcomes.append((name, ok)))
    sim.run_until(0.002)
    assert [ctx.state for ctx in replica._live] == [
        TransactionContext.CERTIFYING, TransactionContext.READS,
        TransactionContext.CPU]
    assert replica._cert_inflight
    replica.crash()
    assert replica.fail_in_flight("crash-in-flight") == 3
    assert outcomes == [(name, False) for name in names]
    assert routing.outstanding[0] == 0
    assert not replica._live
    assert replica.metrics.abort_reasons == {"crash-in-flight": 3}
    drain(sim)
    assert outcomes == [(name, False) for name in names]
    assert certifier.stats.requests == 0
    assert replica.metrics.completed == 0


def test_failed_context_cannot_finish_again():
    """The epoch fence is the only at-most-once guard: a context that
    fail_in_flight already failed raises if it reaches ``_finish`` again."""
    workload = make_tiny_workload()
    sim, _, replica = make_replica(workload)
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0,
                   on_done=outcomes.append)
    (ctx,) = replica._live
    replica.crash()
    assert replica.fail_in_flight("crash-in-flight") == 1
    assert outcomes == [False]
    with pytest.raises(KeyError):
        replica._finish(ctx, committed=False)
    assert outcomes == [False]
