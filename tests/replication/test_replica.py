"""Tests for the replica's transaction pipeline and update propagation."""

from repro.replication import replica as replica_module
from repro.replication.certifier import LAG_NOTIFICATION_THRESHOLD, Certifier
from repro.replication.replica import Replica
from repro.sim.metrics import MetricsCollector
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine
from repro.storage.pages import mb

from tests.conftest import drain, make_tiny_workload, step


def make_replica(replica_id=0, sim=None, certifier=None):
    sim = sim or Simulator()
    certifier = certifier or Certifier()
    workload = make_tiny_workload()
    catalog = Catalog(schema=workload.schema)
    engine = DatabaseEngine(catalog=catalog, buffer_pool=BufferPool(mb(64)))
    replica = Replica(replica_id=replica_id, sim=sim, engine=engine,
                      resources=ReplicaResources.create(sim, replica_id),
                      certifier=certifier)
    replica.metrics = MetricsCollector()
    return sim, certifier, workload, replica


def test_read_only_transaction_completes_locally():
    sim, certifier, workload, replica = make_replica()
    outcomes = []
    replica.submit(workload.type("Read"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True]
    assert certifier.stats.requests == 0
    assert replica.metrics.completed == 1


def test_update_transaction_is_certified_and_logged():
    sim, certifier, workload, replica = make_replica()
    outcomes = []
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=outcomes.append)
    drain(sim)
    assert outcomes == [True]
    assert certifier.current_version == 1
    assert replica.applied_version == 1
    assert replica.metrics.updates_completed == 1


def test_snapshot_is_the_applied_version_when_the_attempt_starts():
    sim, certifier, workload, replica = make_replica()
    replica._advance(5)
    done = []
    replica.submit(workload.type("Read"), submitted_at=0.0, on_done=done.append)
    (ctx,) = replica._live
    assert ctx.snapshot == replica.applied_version == 5
    # The cursor moves on; the running transaction's snapshot does not.
    replica._advance(7)
    assert ctx.snapshot == 5
    drain(sim)
    assert done == [True] and not replica._live


def test_remote_writesets_are_applied_and_charged():
    sim = Simulator()
    certifier = Certifier()
    _, _, workload, origin = make_replica(0, sim, certifier)
    _, _, _, other = make_replica(1, sim, certifier)
    origin.submit(workload.type("Write"), submitted_at=0.0, on_done=lambda ok: None)
    drain(sim)
    assert other.lag == 1
    fetched = other.pull_updates()
    assert fetched == 1
    assert other.applied_version == 1
    assert other.writesets_applied == 1
    assert other.resources.disk.busy_seconds_until(float("inf")) > 0


def test_filtered_replica_skips_foreign_tables():
    sim = Simulator()
    certifier = Certifier()
    _, _, workload, origin = make_replica(0, sim, certifier)
    _, _, _, other = make_replica(1, sim, certifier)
    other.set_filter({"users"})          # Write touches only "orders"
    origin.submit(workload.type("Write"), submitted_at=0.0, on_done=lambda ok: None)
    drain(sim)
    other.pull_updates()
    assert other.writesets_filtered == 1
    assert other.applied_version == 1    # cursor still advances


def test_origin_replica_does_not_reapply_its_own_writeset():
    sim, certifier, workload, replica = make_replica()
    replica.submit(workload.type("Write"), submitted_at=0.0, on_done=lambda ok: None)
    drain(sim)
    applied_before = replica.writesets_applied
    replica.pull_updates()
    assert replica.writesets_applied == applied_before


def test_admission_queues_beyond_max_concurrency(monkeypatch):
    monkeypatch.setattr(replica_module, "MAX_CONCURRENCY", 1)
    sim, certifier, workload, replica = make_replica()
    done = []
    for _ in range(3):
        replica.submit(workload.type("Read"), submitted_at=0.0, on_done=done.append)
    assert len(replica.waiting) == 2
    drain(sim)
    assert done == [True, True, True]


def test_admission_limits_concurrency(monkeypatch):
    monkeypatch.setattr(replica_module, "MAX_CONCURRENCY", 2)
    sim, certifier, workload, replica = make_replica()
    started = []
    original = replica._start

    def capture(ctx):
        started.append(ctx)
        original(ctx)

    replica._start = capture
    done = []
    for _ in range(4):
        replica.submit(workload.type("Read"), submitted_at=0.0, on_done=done.append)
    submitted = list(replica._live)          # dispatch order
    assert started == submitted[:2]
    assert (replica.active, len(replica.waiting), replica.admitted_total) == (2, 2, 2)
    while not done:
        assert step(sim)
    # The finished transaction handed its slot straight to the head of the
    # queue: FIFO order, and ``active`` never dipped.
    assert started == submitted[:3]
    assert (replica.active, len(replica.waiting), replica.admitted_total) == (2, 1, 3)
    drain(sim)
    assert started == submitted
    assert done == [True] * 4
    # The last two finishes found the queue empty and freed their slots.
    assert (replica.active, len(replica.waiting), replica.admitted_total) == (0, 0, 4)


def test_filtering_state():
    _, _, _, replica = make_replica()
    assert replica.filter_tables is None
    tables = {"orders"}
    replica.set_filter(tables)
    tables.add("users")                        # the replica keeps its own copy
    assert replica.filter_tables == {"orders"}
    replica.set_filter(None)
    assert replica.filter_tables is None


def test_propagation_cursor_is_monotonic():
    _, certifier, _, replica = make_replica()
    subscriptions = certifier.subscriptions
    subscriptions.subscribe(replica.replica_id, replica.applied_version)
    replica._advance(5)
    replica._advance(3)
    assert replica.applied_version == 5
    # The lag subscription was re-armed at 5, not moved back to 3.
    notify_at = 5 + LAG_NOTIFICATION_THRESHOLD
    assert subscriptions.crossed(notify_at - 1) == ()
    assert subscriptions.crossed(notify_at) == (replica.replica_id,)
