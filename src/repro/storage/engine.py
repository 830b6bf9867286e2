"""The per-replica database engine.

The engine is the simulated equivalent of one PostgreSQL instance: it owns
the replica's buffer pool and catalog view, and it turns transaction
executions and remote-writeset applications into *resource demand* --
CPU time, random/sequential disk-read volume and dirty-page write-back
volume.  The surrounding simulation (``repro.sim`` / ``repro.replication``)
is responsible for queueing those demands on the replica's CPU and disk
resources and for turning them into latency and throughput.

Separating "how much work does this transaction cause given the current
cache state" (the engine) from "how long does that work take under
contention" (the resources) keeps the memory-contention model -- the heart
of the paper -- independent from the queueing model.

Each transaction type is compiled once per engine into an
:class:`AccessPlan`, the one home of the type's per-type constants: its
buffer-pool steps, CPU seconds, dirtied bytes, write specs and writeset
shape, and its commit write-back cost under the disk model of
:mod:`repro.storage.disk`.  :meth:`DatabaseEngine.execute`
returns the plan with the execution's buffer-pool misses, so the replica
reads those constants instead of recomputing them per transaction.

Snapshot-isolation state is not the engine's: the owning replica holds the
applied-version cursor, and each transaction's context holds the snapshot
it runs on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.storage.buffer_pool import AccessStep, BufferPool
from repro.storage import disk
from repro.storage.catalog import INDEX_PAGES_PER_LOOKUP, Catalog
from repro.storage.pages import PAGE_SIZE_BYTES
from repro.workloads.spec import AccessPattern, TransactionType

# One write spec of a compiled plan: (relation, rows, pages dirtied, key
# space, the key space's bit length).
_WritePlan = Tuple[str, int, int, int, int]


class AccessPlan:
    """One transaction type compiled against one engine's catalog.

    Every per-type constant the replica needs lives here, derived once per
    engine instead of once per transaction: the buffer-pool steps,
    CPU seconds, write-back bytes, the write specs and writeset shape, and
    the commit write-back cost (``write_seconds`` and
    ``effective_write_bytes``) under :mod:`repro.storage.disk`.  Built
    by :meth:`DatabaseEngine._compile`; treat it as immutable.
    """

    __slots__ = ("txn_type", "name", "is_update", "steps", "cpu_seconds",
                 "writes", "shape", "write_seconds", "effective_write_bytes")

    def __init__(self, txn_type: TransactionType, steps: Tuple[AccessStep, ...],
                 cpu_seconds: float, write_bytes: float,
                 writes: Tuple[_WritePlan, ...], shape: "WriteShape") -> None:
        self.txn_type = txn_type
        self.name = txn_type.name
        self.is_update = bool(txn_type.writes)
        self.steps = steps
        self.cpu_seconds = cpu_seconds
        self.writes = writes
        self.shape = shape
        self.write_seconds = disk.write_seconds(write_bytes)
        self.effective_write_bytes = disk.effective_write_bytes(write_bytes)


class WriteItem:
    """One table's worth of changes inside a writeset (see :class:`WriteSet`)."""

    __slots__ = ("relation", "keys", "pages_dirtied")

    def __init__(self, relation: str, keys: Tuple[int, ...],
                 pages_dirtied: int) -> None:
        self.relation = relation
        self.keys = keys
        self.pages_dirtied = pages_dirtied

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WriteItem):
            return NotImplemented
        return (self.relation, self.keys, self.pages_dirtied) == \
            (other.relation, other.keys, other.pages_dirtied)

    def __hash__(self) -> int:
        return hash((self.relation, self.keys, self.pages_dirtied))

    def __repr__(self) -> str:
        return "WriteItem(relation=%r, keys=%r, pages_dirtied=%r)" % (
            self.relation, self.keys, self.pages_dirtied)


class WriteShape:
    """What applying a writeset costs, independent of its keys.

    ``steps`` holds one ``(relation, pages_dirtied * PAGE_SIZE_BYTES)`` pair
    per item, in item order.  Every writeset built from one compiled plan
    shares one shape, so :meth:`DatabaseEngine.apply_writesets_fast` can
    count writesets per shape and decide filtering and touched bytes once per
    distinct shape.  Shapes compare and hash by identity on purpose: a
    tuple-keyed lookup would re-hash the nested steps on every writeset.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[Tuple[str, int], ...]) -> None:
        self.steps = steps


class WriteSet:
    """The changes made by one update transaction (Section 4.1).

    A writeset is "the core information required to reflect the effects of
    an update transaction's changes"; it is what the proxy sends to the
    certifier and what the certifier broadcasts to the other replicas.
    ``DatabaseEngine.execute`` builds each one once, stamped with its origin
    and with the :class:`WriteShape` of its plan; a writeset built without a
    shape derives its own from ``items``.

    Writesets and their items are ``__slots__`` classes, not frozen
    dataclasses, because one of each is built per update transaction.
    Equality, hashing and repr match the dataclasses and ignore ``shape``;
    treat them as immutable.
    """

    __slots__ = ("transaction_type", "items", "origin_replica", "shape")

    def __init__(self, transaction_type: str, items: Tuple[WriteItem, ...],
                 origin_replica: Optional[int] = None,
                 shape: Optional[WriteShape] = None) -> None:
        self.transaction_type = transaction_type
        self.items = items
        self.origin_replica = origin_replica
        if shape is None:
            shape = WriteShape(tuple([(item.relation, item.pages_dirtied * PAGE_SIZE_BYTES)
                                      for item in items]))
        self.shape = shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WriteSet):
            return NotImplemented
        return (self.transaction_type, self.items, self.origin_replica) == \
            (other.transaction_type, other.items, other.origin_replica)

    def __hash__(self) -> int:
        return hash((self.transaction_type, self.items, self.origin_replica))

    def __repr__(self) -> str:
        return "WriteSet(transaction_type=%r, items=%r, origin_replica=%r)" % (
            self.transaction_type, self.items, self.origin_replica)


@dataclass(frozen=True)
class EngineConfig:
    """Tunable cost parameters of the engine itself (CPU side).

    Attributes:
        cpu_ms_per_scanned_mb: CPU cost of processing one MB of scanned
            tuples (predicate evaluation, aggregation); charged regardless of
            whether the data came from cache or disk.
        cpu_ms_per_writeset_item: CPU cost of applying one table's changes
            from a remote writeset.
        key_space_per_page: how many distinct logical keys map to one page
            when generating writeset keys (controls certification conflict
            probability).
        write_locality: fraction of a table within which writes (and remote
            writeset applications) land.  Inserts append to the tail of a
            table and updates favour recent rows, so the pages being dirtied
            form a small, usually cache-resident region; this keeps the read
            cost of applying a writeset low while its write-back still
            consumes disk-channel bandwidth (Section 5.5).
        bulk_read_pages_threshold: random accesses that touch at least this
            many pages per execution (large range/aggregation queries such as
            BestSellers or AboutMe) fetch their misses with bitmap/readahead
            style bulk I/O, so those misses are charged at sequential rather
            than per-page random cost.
    """

    cpu_ms_per_scanned_mb: float = 1.5
    cpu_ms_per_writeset_item: float = 0.4
    key_space_per_page: int = 40
    write_locality: float = 0.03
    bulk_read_pages_threshold: int = 64


class DatabaseEngine:
    """One replica's database: catalog + buffer pool + execution cost model."""

    def __init__(self, catalog: Catalog, buffer_pool: BufferPool,
                 config: Optional[EngineConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.catalog = catalog
        self.buffer_pool = buffer_pool
        self.config = config or EngineConfig()
        # The cluster always injects a config.seed-derived stream; the
        # literal is the standalone-engine default for unit tests.
        self.rng = rng or random.Random(0)  # simlint: disable=R1
        # Stamped on every writeset as its origin; set by Replica.__init__.
        self.replica_id: Optional[int] = None
        # Transaction type name -> compiled access plan (see _compile),
        # derived purely from catalog metadata, which is fixed for a run.
        # The plan holds the type object itself, so a different type that
        # reuses a name is recompiled, not served a stale plan.
        self._plans: Dict[str, AccessPlan] = {}
        # relation name -> write hot-set bytes, shared by local writes and
        # remote writeset application.
        self._write_hot_sets: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------
    def execute(self, txn_type: TransactionType
                ) -> Tuple[AccessPlan, float, float, Optional[WriteSet]]:
        """Execute one instance of ``txn_type`` against the local cache.

        Returns ``(plan, random_miss, sequential_miss, writeset)``: the
        type's compiled plan (its CPU seconds, write-back bytes and commit
        costs), the bytes the buffer pool missed on random and on
        sequential reads, and, for update types, the writeset to be
        certified and propagated, stamped with this engine's replica as its
        origin.
        """
        plan = self._plans.get(txn_type.name)
        if plan is None or plan.txn_type is not txn_type:
            plan = self._plans[txn_type.name] = self._compile(txn_type)
        random_miss, sequential_miss = self.buffer_pool.access_many(plan.steps)

        writeset: Optional[WriteSet] = None
        writes = plan.writes
        if writes:
            writeset = WriteSet(
                plan.name,
                tuple([WriteItem(relation, self._generate_keys(key_space, key_bits, rows),
                                 pages)
                       for relation, rows, pages, key_space, key_bits in writes]),
                self.replica_id,
                plan.shape,
            )
        return plan, random_miss, sequential_miss, writeset

    def _compile(self, txn_type: TransactionType) -> AccessPlan:
        """Derive a transaction type's buffer-pool steps and costs.

        Only values that depend on the catalog and the engine's static
        config are precomputed; buffer-pool state is consulted at execution
        time.  Reads come first, in spec order: a scan touches its whole hot
        set sequentially; a random access descends the table's smallest
        index (if any) and then fetches table pages, as sequential bulk I/O
        once it touches ``bulk_read_pages_threshold`` pages.  The pages each
        write dirties must then be resident; writes cluster in a small
        append/update region, so those reads usually hit the cache.
        """
        catalog = self.catalog
        config = self.config
        steps: List[AccessStep] = []
        cpu_seconds = txn_type.cpu_ms / 1000.0
        for access in txn_type.reads:
            relation_name = access.relation
            relation = catalog.get(relation_name)
            if relation is None:
                raise KeyError("engine: unknown relation %r" % (relation_name,))
            hot_set = _at_least_a_page(
                float(catalog.size_bytes(relation_name)) * access.selectivity)
            if access.pattern is AccessPattern.SCAN:
                steps.append((relation_name, hot_set, hot_set, True))
                cpu_seconds += (hot_set / (1024.0 * 1024.0)) * \
                    config.cpu_ms_per_scanned_mb / 1000.0
                continue
            if relation.is_table:
                chosen = catalog.smallest_index_of(relation_name)
                if chosen is not None:
                    index_hot = _at_least_a_page(
                        float(catalog.size_bytes(chosen.name)) * access.selectivity)
                    index_touch = INDEX_PAGES_PER_LOOKUP * PAGE_SIZE_BYTES
                    steps.append((chosen.name, min(index_touch, index_hot),
                                  index_hot, False))
            touched = access.pages_per_execution * PAGE_SIZE_BYTES
            steps.append((relation_name, min(touched, hot_set), hot_set,
                          access.pages_per_execution >= config.bulk_read_pages_threshold))

        write_bytes = 0.0
        writes: List[_WritePlan] = []
        shape_steps: List[Tuple[str, int]] = []
        for write_spec in txn_type.writes:
            relation_name = write_spec.relation
            touched = write_spec.pages_dirtied * PAGE_SIZE_BYTES
            hot_set = self._write_hot_set(relation_name)
            steps.append((relation_name, min(touched, hot_set), hot_set, False))
            write_bytes += touched
            key_space = max(1, catalog.relpages(relation_name)) * config.key_space_per_page
            if key_space < 1:
                raise ValueError("engine: empty key space for writes to %r"
                                 % (relation_name,))
            writes.append((relation_name, write_spec.rows, write_spec.pages_dirtied,
                           key_space, key_space.bit_length()))
            shape_steps.append((relation_name, touched))
        return AccessPlan(txn_type, tuple(steps), cpu_seconds, write_bytes,
                          tuple(writes), WriteShape(tuple(shape_steps)))

    def _write_hot_set(self, relation: str) -> float:
        """Hot-set size for writes to ``relation`` (cached per engine)."""
        hot_sets = self._write_hot_sets
        hot_set = hot_sets.get(relation)
        if hot_set is None:
            hot_set = hot_sets[relation] = _at_least_a_page(
                float(self.catalog.size_bytes(relation)) * self.config.write_locality)
        return hot_set

    def _generate_keys(self, key_space: int, key_bits: int,
                       rows: int) -> Tuple[int, ...]:
        """Draw ``rows`` keys uniformly from ``range(key_space)``.

        ``key_bits`` is ``key_space.bit_length()``.  Rejection sampling on
        ``getrandbits(key_bits)`` is the algorithm ``randrange(key_space)``
        runs, so it makes the same ``getrandbits`` calls and returns the
        same keys, without two Python frames per key.
        """
        getrandbits = self.rng.getrandbits
        keys: List[int] = []
        for _ in range(rows):
            r = getrandbits(key_bits)
            while r >= key_space:
                r = getrandbits(key_bits)
            keys.append(r)
        return tuple(keys)

    # ------------------------------------------------------------------
    # Remote writeset application (update propagation)
    # ------------------------------------------------------------------
    def apply_writesets_fast(self, writesets: Sequence[WriteSet],
                             allowed_tables: Optional[Set[str]] = None
                             ) -> Tuple[float, float, float, int, int]:
        """Apply a batch of remote writesets, aggregating per relation.

        Update propagation applies writesets in batches (a periodic pull or
        the piggyback on a certification response), and within one batch the
        items cluster on a handful of write-hot regions.  Charging the
        buffer pool once per ``(batch, relation)`` with the summed touched
        bytes -- instead of once per item -- keeps the application cost
        proportional to the number of distinct relations, which is what made
        full-fidelity propagation (every committed writeset applied at every
        replica) affordable at paper scale.

        ``allowed_tables`` implements update filtering: when given, changes
        to tables outside the set are dropped ("the proxy ... only forwards
        the writesets for those tables to the replica", Section 4.2.3).
        Remote writeset application never causes sequential reads.

        Returns ``(cpu_seconds, random_read_bytes, write_bytes,
        writesets_applied, writesets_filtered)``.
        """
        # Writesets of one shape make identical filtering and touched-bytes
        # decisions, so they are counted per shape and decided once each.
        # The outputs are bit-identical to an item-by-item pass: touched
        # bytes are integers (exact in any grouping), and each relation
        # still enters touched_by_relation in first-appearance order, since
        # a shape is first counted at the first writeset that carries it.
        counts: Dict[WriteShape, int] = {}
        for writeset in writesets:
            shape = writeset.shape
            if shape in counts:
                counts[shape] += 1
            else:
                counts[shape] = 1
        cpu_per_item = self.config.cpu_ms_per_writeset_item / 1000.0
        touched_by_relation: Dict[str, float] = {}
        applied_items = 0
        applied_count = 0
        filtered_count = 0
        for shape, count in counts.items():
            applied_any = False
            for relation, touched in shape.steps:
                if allowed_tables is not None and relation not in allowed_tables:
                    continue
                applied_any = True
                applied_items += count
                if relation in touched_by_relation:
                    touched_by_relation[relation] += touched * count
                else:
                    touched_by_relation[relation] = touched * count
            if applied_any:
                applied_count += count
            else:
                filtered_count += count
        random_read_bytes = 0.0
        write_bytes = 0.0
        if touched_by_relation:
            hot_sets = self._write_hot_sets
            steps: List[AccessStep] = []
            for relation, touched in touched_by_relation.items():
                hot_set = hot_sets.get(relation)
                if hot_set is None:
                    hot_set = self._write_hot_set(relation)
                steps.append((relation, min(touched, hot_set), hot_set, False))
                write_bytes += touched
            random_read_bytes, _ = self.buffer_pool.access_many(steps)
        return (cpu_per_item * applied_items, random_read_bytes, write_bytes,
                applied_count, filtered_count)


def _at_least_a_page(hot_set: float) -> float:
    """A hot set is never smaller than one page."""
    return hot_set if hot_set >= PAGE_SIZE_BYTES else float(PAGE_SIZE_BYTES)
