"""Shared fixtures: a small synthetic workload that runs fast in tests."""

import heapq

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.storage.relation import Schema, index, table
from repro.workloads.spec import Mix, WorkloadSpec, lookup, scan, transaction_type, write


#: A gibibyte, for sizing the paper's databases.
GB = 1024 * mb(1)


def make_tiny_schema():
    return Schema.from_relations(
        "tiny",
        [
            table("users", mb(40)),
            index("users_pkey", "users", mb(4)),
            table("orders", mb(60)),
            index("orders_pkey", "orders", mb(6)),
            table("items", mb(10)),
            index("items_pkey", "items", mb(1)),
            table("logs", mb(80)),
        ],
    )


def make_tiny_workload():
    schema = make_tiny_schema()
    types = {
        "Read": transaction_type(
            "Read", reads=[lookup("users", pages=2), lookup("items", pages=2)], cpu_ms=4.0),
        "Scan": transaction_type(
            "Scan", reads=[scan("items"), lookup("users", pages=2)], cpu_ms=8.0),
        "Big": transaction_type(
            "Big", reads=[lookup("logs", pages=100, selectivity=0.8), scan("items")], cpu_ms=12.0),
        "Write": transaction_type(
            "Write",
            reads=[lookup("orders", pages=2), lookup("users", pages=1)],
            writes=[write("orders", rows=1, pages_dirtied=1)],
            cpu_ms=6.0),
    }
    mixes = {
        "balanced": Mix("balanced", {"Read": 40, "Scan": 25, "Big": 5, "Write": 30}),
        "readonly": Mix("readonly", {"Read": 60, "Scan": 35, "Big": 5}),
    }
    return WorkloadSpec(name="tiny", schema=schema, types=types, mixes=mixes)


def scanned_relations(plan):
    """Relations a plan reads by sequential scan, in plan order, de-duplicated."""
    return list(dict.fromkeys(node.relation for node in plan.nodes if node.is_scan))


def randomly_accessed_relations(plan):
    """Relations (index and table) a plan reads through an index."""
    seen = {}
    for node in plan.nodes:
        if node.is_index_scan:
            seen.setdefault(node.relation, None)
            seen.setdefault(node.table, None)
    return list(seen)


def total_size_bytes(schema):
    """On-disk size of a database: its tables plus indices."""
    return sum(relation.size_bytes for relation in schema)


def written_tables(plan):
    """Relations a plan modifies, in plan order, de-duplicated."""
    return list(dict.fromkeys(node.relation for node in plan.nodes if node.is_modify))


def mix_update_fraction(mix, types):
    """Fraction of a mix's transactions that are updates."""
    total = sum(mix.weights.values())
    return sum(weight / total for name, weight in mix.weights.items()
               if types[name].is_update)


def verify_availability(plan, min_copies=2):
    """Availability violations of an update-filtering plan (empty when safe).

    Checks both constraints of Section 3: every transaction type has at
    least ``min_copies`` capable replicas and every table some replica keeps
    is maintained on at least ``min_copies`` replicas.
    """
    problems = []
    total_replicas = len(plan.tables_per_replica)
    effective_min = min(min_copies, total_replicas) if total_replicas else 0
    for type_name, replicas in plan.type_copies.items():
        if len(replicas) < effective_min:
            problems.append("transaction type %s has only %d capable replicas (need %d)"
                            % (type_name, len(replicas), effective_min))
    table_copies = {}
    for tables in plan.tables_per_replica.values():
        for name in tables:
            table_copies[name] = table_copies.get(name, 0) + 1
    for name, copies in table_copies.items():
        if copies < effective_min:
            problems.append("table %s is maintained on only %d replicas (need %d)"
                            % (name, copies, effective_min))
    return problems


def update_fraction(metrics):
    """Fraction of the completed transactions that were updates."""
    if not metrics.completed:
        return 0.0
    return metrics.updates_completed / metrics.completed


class CompletionCounter:
    """Committed completions per replica id and per transaction type.

    A cluster observer: ``cluster.attach(counter)`` wraps every replica's
    ``_finish``, joiners included, and counts the calls that
    ``MetricsCollector.record_completion`` counts -- committed, with a
    collector installed, at or after the warm-up.
    """

    def __init__(self):
        self.by_replica = {}
        self.by_type = {}

    def instrument_cluster(self, cluster):
        pass

    def instrument_replica(self, replica):
        finish = replica._finish

        def counted_finish(ctx, committed):
            finish(ctx, committed)
            metrics = replica.metrics
            if committed and metrics is not None and \
                    replica.sim.now >= metrics.warmup_seconds:
                rid = replica.replica_id
                self.by_replica[rid] = self.by_replica.get(rid, 0) + 1
                name = ctx.plan.name
                self.by_type[name] = self.by_type.get(name, 0) + 1

        replica._finish = counted_finish


def count_completions(cluster):
    """Attach and return a :class:`CompletionCounter`."""
    counter = CompletionCounter()
    cluster.attach(counter)
    return counter


def step(sim):
    """Run the next event alone; ``False`` when the queue is empty.

    The probe and counter bookkeeping match ``Simulator.run_until``.
    """
    queue = sim.queue
    if not queue._heap:
        return False
    time, sequence, callback = heapq.heappop(queue._heap)
    sim.now = time
    if queue.probe is not None:
        queue.probe(time, sequence, callback)
    callback()
    sim.events_processed += 1
    return True


def drain(sim):
    """Run events until the queue is empty."""
    while step(sim):
        pass


def series(registry, metric):
    """``(time, value)`` pairs of one counter or gauge across a telemetry
    registry's snapshots."""
    points = []
    for snap in registry.snapshots:
        if metric in snap["counters"]:
            points.append((snap["time"], snap["counters"][metric]))
        elif metric in snap["gauges"]:
            points.append((snap["time"], snap["gauges"][metric]))
    return points


class RequestCounter:
    """Client requests in flight, seen from the clients' side.

    Wraps the population's ``submit`` (do it before the run starts) and
    counts the completions it hands back to the clients.
    """

    def __init__(self, cluster):
        self.population = cluster.clients
        self.completed = 0
        submit = self.population.submit

        def counted_submit(txn_type, client_id, done):
            def counted_done(committed):
                self.completed += 1
                done(committed)

            submit(txn_type, client_id, counted_done)

        self.population.submit = counted_submit

    @property
    def outstanding(self):
        """Requests issued but not yet completed."""
        return self.population.requests_issued - self.completed


@pytest.fixture
def tiny_schema():
    return make_tiny_schema()


@pytest.fixture
def tiny_workload():
    return make_tiny_workload()


@pytest.fixture
def tiny_catalog(tiny_schema):
    return Catalog(schema=tiny_schema)


@pytest.fixture
def tiny_planner(tiny_catalog):
    return QueryPlanner(catalog=tiny_catalog)


@pytest.fixture
def tiny_engine(tiny_catalog):
    pool = BufferPool(capacity_bytes=mb(32))
    return DatabaseEngine(catalog=tiny_catalog, buffer_pool=pool, config=EngineConfig())
