"""Working-set estimation from execution plans and catalog metadata.

This is the mechanism of Section 4.2.2: the load balancer (1) learns the
transaction types from the application, (2) retrieves the schema, (3) reads
``relpages`` for every table and index, and (4) obtains the ``EXPLAIN`` plan
of each transaction type and records "all tables and indices accessed as
well as how they are accessed".

The estimator never looks at the workload's internal access specification --
only at the :class:`~repro.storage.query_plan.ExecutionPlan` and the
:class:`~repro.storage.catalog.Catalog`, exactly the information available
to the real middleware.  Consequently its estimates inherit the paper's
biases: the full-relation upper estimate over-states working sets of
random-access transactions (OrderDisplay), while the scanned-only lower
estimate under-states them (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.core.working_set import WorkingSetEstimate
from repro.storage.catalog import Catalog
from repro.storage.pages import PAGE_SIZE_BYTES
from repro.storage.planner import QueryPlanner
from repro.storage.query_plan import ExecutionPlan
from repro.workloads.spec import TransactionType

#: Executions of the type per candidate memory size in
#: :func:`measure_working_set` (a quarter of them warm the cache up).
MEASURE_EXECUTIONS = 300
#: Disk read volume per execution (KB) above which I/O has spiked.
DISK_SPIKE_THRESHOLD_KB = 24.0


@dataclass
class WorkingSetEstimator:
    """Builds :class:`WorkingSetEstimate` objects for transaction types."""

    catalog: Catalog
    planner: QueryPlanner

    def estimate_from_plan(self, plan: ExecutionPlan) -> WorkingSetEstimate:
        """Estimate a working set from an execution plan.

        Every relation referenced by the plan contributes its full catalog
        size; relations referenced via a sequential scan are recorded in the
        ``scanned`` set (the MALB-SCAP lower estimate).  Index scans
        contribute both the index and the underlying table, because serving
        the lookup touches pages of both structures.
        """
        relation_bytes: Dict[str, int] = {}
        scanned = set()
        written = set()
        for node in plan.nodes:
            if node.is_modify:
                written.add(node.relation)
                relation_bytes.setdefault(node.relation, self._size_of(node.relation))
                continue
            relation_bytes.setdefault(node.relation, self._size_of(node.relation))
            if node.is_scan:
                scanned.add(node.relation)
            if node.is_index_scan and node.table != node.relation:
                relation_bytes.setdefault(node.table, self._size_of(node.table))
        return WorkingSetEstimate(
            transaction_type=plan.transaction_type,
            relation_bytes=relation_bytes,
            scanned=frozenset(scanned),
            written=frozenset(written),
        )

    def estimate(self, txn_type: TransactionType) -> WorkingSetEstimate:
        """Plan a transaction type (EXPLAIN) and estimate its working set."""
        return self.estimate_from_plan(self.planner.plan(txn_type))

    def estimate_all(self, types: Mapping[str, TransactionType]) -> Dict[str, WorkingSetEstimate]:
        """Estimate every transaction type of a workload."""
        return {name: self.estimate(txn_type) for name, txn_type in types.items()}

    def _size_of(self, relation: str) -> int:
        if relation not in self.catalog:
            return PAGE_SIZE_BYTES
        return int(self.catalog.size_bytes(relation))


def measure_working_set(engine_factory, txn_type: TransactionType,
                        memory_sizes_bytes: Iterable[int]) -> int:
    """Experimentally measure a transaction type's working set.

    Mirrors the paper's methodology (Section 5.3): "we measure the working
    set of all transaction types experimentally by dedicating transaction
    types to a single machine and adjusting the amount of free memory until
    the amount of disk I/O spiked".

    ``engine_factory`` must build a fresh
    :class:`~repro.storage.engine.DatabaseEngine` for a given buffer size.
    The function runs the type repeatedly at each candidate memory size
    (smallest first) and returns the smallest size at which the steady-state
    disk read volume per execution stays below ``DISK_SPIKE_THRESHOLD_KB``.
    If no candidate is large enough the largest candidate is returned.

    The warm-up phase runs the type to discover the relations (and hot-set
    sizes) it touches, then fills the cache with those hot sets up to the
    candidate capacity before measuring.  Random-access types with large
    hot sets populate the cache only by their own misses -- a few hundred
    executions touch a tiny fraction of a multi-hundred-MB working set --
    so measuring right after an execution-only warm-up reports a cold-cache
    spike at *every* memory size and the measurement saturates at the
    largest candidate (the failure mode this function had since the seed).
    """
    sizes = sorted(set(int(s) for s in memory_sizes_bytes))
    if not sizes:
        raise ValueError("at least one candidate memory size is required")
    chosen = sizes[-1]
    for size in sizes:
        engine = engine_factory(size)
        pool = engine.buffer_pool
        # Discover the type's access footprint, then warm to steady state:
        # every still-tracked hot set fully cached, least-recently-used
        # data evicted if the candidate memory cannot hold them all.  (A
        # relation fully evicted during discovery is no longer tracked and
        # starts cold -- that only inflates misses at candidates already
        # too small to hold the working set, i.e. sizes being rejected.)
        warmup = MEASURE_EXECUTIONS // 4
        for _ in range(warmup):
            engine.execute(txn_type)
        for relation in pool.tracked_relations():
            pool.warm(relation, pool.hot_set_bytes_of(relation))
        read_bytes = 0.0
        measured = MEASURE_EXECUTIONS - warmup
        for _ in range(measured):
            _, random_miss, sequential_miss, _ = engine.execute(txn_type)
            read_bytes += random_miss + sequential_miss
        per_execution_kb = read_bytes / measured / 1024.0
        if per_execution_kb <= DISK_SPIKE_THRESHOLD_KB:
            chosen = size
            break
    return chosen
