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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.pages import PAGE_SIZE_BYTES
from repro.storage.snapshot import SnapshotManager
from repro.workloads.spec import AccessPattern, TableAccess, TransactionType

# Cached per-access read plan: (access, catalog version, is_scan, relation,
# hot-set bytes, scan CPU seconds, touched bytes, index name, index touched
# bytes, index hot-set bytes, is_bulk).  See DatabaseEngine._plan_read.
_ReadPlan = Tuple[TableAccess, int, bool, str, float, float, float,
                  Optional[str], float, float, bool]


class TransactionWork:
    """Resource demand generated by one transaction (or writeset) execution.

    A ``__slots__`` class rather than a dataclass: one instance is allocated
    per transaction execution and per remote-writeset application, which
    makes construction cost part of the simulator's hot path.

    Attributes:
        cpu_seconds: processor time needed (query processing, tuple handling).
        random_read_bytes: buffer-pool misses from random (index) accesses.
        sequential_read_bytes: buffer-pool misses from sequential scans.
        write_bytes: dirty-page volume that must eventually be written back.
    """

    __slots__ = ("cpu_seconds", "random_read_bytes", "sequential_read_bytes",
                 "write_bytes")

    def __init__(self, cpu_seconds: float = 0.0, random_read_bytes: float = 0.0,
                 sequential_read_bytes: float = 0.0, write_bytes: float = 0.0) -> None:
        self.cpu_seconds = cpu_seconds
        self.random_read_bytes = random_read_bytes
        self.sequential_read_bytes = sequential_read_bytes
        self.write_bytes = write_bytes

    def __repr__(self) -> str:
        return ("TransactionWork(cpu_seconds=%r, random_read_bytes=%r, "
                "sequential_read_bytes=%r, write_bytes=%r)"
                % (self.cpu_seconds, self.random_read_bytes,
                   self.sequential_read_bytes, self.write_bytes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionWork):
            return NotImplemented
        return (self.cpu_seconds, self.random_read_bytes,
                self.sequential_read_bytes, self.write_bytes) == \
               (other.cpu_seconds, other.random_read_bytes,
                other.sequential_read_bytes, other.write_bytes)

    @property
    def read_bytes(self) -> float:
        return self.random_read_bytes + self.sequential_read_bytes

    def add(self, other: "TransactionWork") -> None:
        self.cpu_seconds += other.cpu_seconds
        self.random_read_bytes += other.random_read_bytes
        self.sequential_read_bytes += other.sequential_read_bytes
        self.write_bytes += other.write_bytes


@dataclass(frozen=True)
class WriteItem:
    """One table's worth of changes inside a writeset."""

    relation: str
    keys: Tuple[int, ...]
    payload_bytes: int
    pages_dirtied: int


@dataclass(frozen=True)
class WriteSet:
    """The changes made by one update transaction (Section 4.1).

    A writeset is "the core information required to reflect the effects of
    an update transaction's changes"; it is what the proxy sends to the
    certifier and what the certifier broadcasts to the other replicas.
    """

    transaction_type: str
    items: Tuple[WriteItem, ...]
    origin_replica: Optional[int] = None
    snapshot_version: int = 0

    @property
    def tables(self) -> Tuple[str, ...]:
        return tuple(item.relation for item in self.items)

    @property
    def payload_bytes(self) -> int:
        return sum(item.payload_bytes for item in self.items)

    @property
    def pages_dirtied(self) -> int:
        return sum(item.pages_dirtied for item in self.items)

    def keys_by_table(self) -> Dict[str, Set[int]]:
        return {item.relation: set(item.keys) for item in self.items}

    def conflicts_with(self, other: "WriteSet") -> bool:
        """Write-write conflict test used by the certifier."""
        mine = self.keys_by_table()
        for item in other.items:
            keys = mine.get(item.relation)
            if keys and keys.intersection(item.keys):
                return True
        return False

    def restricted_to(self, tables: Iterable[str]) -> "WriteSet":
        """The sub-writeset touching only ``tables`` (update filtering)."""
        wanted = set(tables)
        return WriteSet(
            transaction_type=self.transaction_type,
            items=tuple(item for item in self.items if item.relation in wanted),
            origin_replica=self.origin_replica,
            snapshot_version=self.snapshot_version,
        )


@dataclass(frozen=True)
class EngineConfig:
    """Tunable cost parameters of the engine itself (CPU side).

    Attributes:
        cpu_ms_per_scanned_mb: CPU cost of processing one MB of scanned
            tuples (predicate evaluation, aggregation); charged regardless of
            whether the data came from cache or disk.
        cpu_ms_per_writeset_item: CPU cost of applying one table's changes
            from a remote writeset.
        index_pages_per_lookup: pages of the index structure touched per
            random table access (B-tree descent).
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
    index_pages_per_lookup: int = 3
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
        self.snapshots = SnapshotManager()
        self.dropped_tables: Set[str] = set()
        # Cumulative accounting for the paper's disk-I/O tables.
        self.transactions_executed = 0
        self.writesets_applied = 0
        self.writesets_filtered = 0
        # Per-access execution plans (sizes, hot sets, index choice) derived
        # purely from catalog metadata.  Keyed by the identity of the spec's
        # long-lived AccessSpec objects and invalidated whenever the catalog
        # version changes, so a transaction type executed thousands of times
        # does not re-derive the same constants on every execution.  The
        # plan tuple holds the access object itself, which both pins its id
        # and guards against identity reuse.
        self._read_plans: Dict[int, _ReadPlan] = {}
        self._read_plans_version = -1
        # relation name -> write hot-set bytes, shared by local writes and
        # remote writeset application; cleared when the catalog version moves.
        self._write_hot_sets: Dict[str, float] = {}
        self._write_hot_version = -1

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------
    def execute(self, txn_type: TransactionType) -> Tuple[TransactionWork, Optional[WriteSet]]:
        """Execute one instance of ``txn_type`` against the local cache.

        Returns the resource demand and, for update types, the writeset to
        be certified and propagated.
        """
        work = TransactionWork(cpu_seconds=txn_type.cpu_ms / 1000.0)

        if self._read_plans_version != self.catalog.version:
            self._read_plans.clear()
            self._read_plans_version = self.catalog.version
        for access in txn_type.reads:
            self._execute_read(access, work)

        writeset: Optional[WriteSet] = None
        if txn_type.is_update:
            writeset = self._execute_writes(txn_type, work)

        self.transactions_executed += 1
        return work, writeset

    def _execute_read(self, access: TableAccess, work: TransactionWork) -> None:
        """Perform one read access (the plan cache is validated by execute())."""
        plan = self._read_plans.get(id(access))
        if plan is None or plan[0] is not access:
            plan = self._plan_read(access)
            self._read_plans[id(access)] = plan
        buffer_pool = self.buffer_pool
        (_, _, is_scan, relation_name, hot_set,
         scan_cpu_seconds, touched, index_name, index_touch, index_hot,
         is_bulk) = plan

        if is_scan:
            miss = buffer_pool.access(relation_name, hot_set, hot_set)
            work.sequential_read_bytes += miss
            work.cpu_seconds += scan_cpu_seconds
            return

        # Random access: descend an index (if any), then fetch table pages.
        if index_name is not None:
            miss = buffer_pool.access(index_name, index_touch, index_hot)
            work.random_read_bytes += miss
        miss = buffer_pool.access(relation_name, touched, hot_set)
        if is_bulk:
            # Large range accesses fetch their misses with readahead-style
            # bulk I/O rather than one seek per page.
            work.sequential_read_bytes += miss
        else:
            work.random_read_bytes += miss

    def _plan_read(self, access: TableAccess) -> _ReadPlan:
        """Derive an access's cost constants from catalog metadata.

        Exactly the arithmetic the execution path used to perform per
        execution; only values that depend exclusively on the catalog (and
        the engine's static config) are precomputed -- buffer-pool state
        is consulted at execution time as before.
        """
        catalog = self.catalog
        relation_name = access.relation
        relation = catalog.get(relation_name)
        if relation is None:
            raise KeyError("engine: unknown relation %r" % (relation_name,))
        version = catalog.version
        size = float(catalog.size_bytes(relation_name))
        hot_set = size * access.selectivity
        if hot_set < PAGE_SIZE_BYTES:
            hot_set = float(PAGE_SIZE_BYTES)

        if access.pattern is AccessPattern.SCAN:
            scan_cpu = (hot_set / (1024.0 * 1024.0)) * \
                self.config.cpu_ms_per_scanned_mb / 1000.0
            return (access, version, True, relation_name, hot_set,
                    scan_cpu, 0.0, None, 0.0, 0.0, False)

        touched = access.pages_per_execution * PAGE_SIZE_BYTES
        index_name = None
        index_touch = 0.0
        index_hot = 0.0
        if relation.is_table:
            chosen = catalog.smallest_index_of(relation_name)
            if chosen is not None:
                index_name = chosen.name
                index_hot = float(catalog.size_bytes(chosen.name)) * access.selectivity
                if index_hot < PAGE_SIZE_BYTES:
                    index_hot = float(PAGE_SIZE_BYTES)
                index_touch = self.config.index_pages_per_lookup * PAGE_SIZE_BYTES
        is_bulk = access.pages_per_execution >= self.config.bulk_read_pages_threshold
        return (access, version, False, relation_name, hot_set,
                0.0, touched, index_name, index_touch, index_hot, is_bulk)

    def _write_hot_map(self) -> Dict[str, float]:
        """Relation -> write hot-set bytes, valid for the current catalog."""
        if self._write_hot_version != self.catalog.version:
            self._write_hot_sets.clear()
            self._write_hot_version = self.catalog.version
        return self._write_hot_sets

    def _write_hot_set(self, relation: str) -> float:
        """Hot-set size for writes to ``relation`` (cached per catalog version)."""
        hot_map = self._write_hot_map()
        hot_set = hot_map.get(relation)
        if hot_set is None:
            hot_set = float(self.catalog.size_bytes(relation)) * self.config.write_locality
            if hot_set < PAGE_SIZE_BYTES:
                hot_set = float(PAGE_SIZE_BYTES)
            hot_map[relation] = hot_set
        return hot_set

    def _execute_writes(self, txn_type: TransactionType, work: TransactionWork) -> WriteSet:
        items: List[WriteItem] = []
        for write_spec in txn_type.writes:
            touched = write_spec.pages_dirtied * PAGE_SIZE_BYTES
            hot_set = self._write_hot_set(write_spec.relation)
            # The pages being modified must be resident before they can be
            # dirtied; fetching them is random read I/O, but writes cluster
            # in a small append/update region so they usually hit the cache.
            miss = self.buffer_pool.access(write_spec.relation, touched, hot_set)
            work.random_read_bytes += miss
            work.write_bytes += touched

            keys = self._generate_keys(write_spec.relation, write_spec.rows)
            items.append(
                WriteItem(
                    relation=write_spec.relation,
                    keys=keys,
                    payload_bytes=write_spec.writeset_bytes,
                    pages_dirtied=write_spec.pages_dirtied,
                )
            )
        return WriteSet(
            transaction_type=txn_type.name,
            items=tuple(items),
            snapshot_version=self.snapshots.applied_version,
        )

    def _generate_keys(self, relation: str, rows: int) -> Tuple[int, ...]:
        pages = max(1, self.catalog.relpages(relation))
        key_space = pages * self.config.key_space_per_page
        return tuple(self.rng.randrange(key_space) for _ in range(rows))

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
        Tables in :attr:`dropped_tables` are always filtered.  Remote
        writeset application never causes sequential reads.

        Returns ``(cpu_seconds, random_read_bytes, write_bytes,
        writesets_applied, writesets_filtered)``.
        """
        dropped = self.dropped_tables
        cpu_per_item = self.config.cpu_ms_per_writeset_item / 1000.0
        touched_by_relation: Dict[str, float] = {}
        applied_items = 0
        applied_count = 0
        filtered_count = 0
        for writeset in writesets:
            applied_any = False
            for item in writeset.items:
                relation = item.relation
                if relation in dropped:
                    continue
                if allowed_tables is not None and relation not in allowed_tables:
                    continue
                applied_any = True
                applied_items += 1
                touched = item.pages_dirtied * PAGE_SIZE_BYTES
                if relation in touched_by_relation:
                    touched_by_relation[relation] += touched
                else:
                    touched_by_relation[relation] = touched
            if applied_any:
                applied_count += 1
            else:
                filtered_count += 1
        random_read_bytes = 0.0
        write_bytes = 0.0
        if touched_by_relation:
            buffer_pool = self.buffer_pool
            hot_map = self._write_hot_map()
            for relation, touched in touched_by_relation.items():
                hot_set = hot_map.get(relation)
                if hot_set is None:
                    hot_set = self._write_hot_set(relation)
                random_read_bytes += buffer_pool.access(relation, touched, hot_set)
                write_bytes += touched
        self.writesets_applied += applied_count
        self.writesets_filtered += filtered_count
        return (cpu_per_item * applied_items, random_read_bytes, write_bytes,
                applied_count, filtered_count)

    # ------------------------------------------------------------------
    # Table dropping (update filtering with stable workloads)
    # ------------------------------------------------------------------
    def drop_table(self, relation: str) -> float:
        """Stop maintaining a relation at this replica and free its cache."""
        self.dropped_tables.add(relation)
        return self.buffer_pool.invalidate(relation)

    def restore_table(self, relation: str) -> None:
        """Resume maintaining a previously dropped relation (recovery path)."""
        self.dropped_tables.discard(relation)
