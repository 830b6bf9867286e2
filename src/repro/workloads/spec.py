"""Workload specifications: transaction types, access specs and mixes.

The paper assumes "the database application has a fixed set of parameterized
transaction types" (Section 1) accessed through a pre-defined set of
interactions -- the standard model of e-commerce applications such as TPC-W
and RUBiS.  A workload is therefore fully described by:

* a database schema (tables and indices, see :mod:`repro.storage.relation`),
* a set of :class:`TransactionType` definitions, each listing which
  relations it reads (and how: sequential scan vs random index access),
  which tables it writes, and its CPU cost, and
* one or more :class:`Mix` objects giving the relative frequency of each
  type (TPC-W browsing/shopping/ordering, RUBiS browsing/bidding).

These specs are consumed by three parties:

* the storage *planner*, which turns an access spec into the execution plan
  that the real system would obtain from ``EXPLAIN``;
* the storage *engine*, which charges buffer-pool and disk work when a
  transaction instance executes; and
* the *load balancer*, which only ever sees the transaction type name plus
  whatever it can learn from the plan and the catalog -- never the spec
  itself (that would be cheating relative to the paper).
"""

from __future__ import annotations

import bisect
import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    # Imported lazily to avoid a circular import: the storage engine itself
    # consumes the transaction-type spec defined here.
    from repro.storage.relation import Schema


class AccessPattern(enum.Enum):
    """How a transaction reads a relation, as visible in its query plan.

    ``SCAN``   -- a sequential scan: every page of the relation is touched.
    ``RANDOM`` -- index-driven random access: each execution touches only a
                  handful of pages, but across many instances with different
                  parameters the accesses spread over the whole relation
                  (Section 2.2, "Working Set Access Pattern").
    """

    SCAN = "scan"
    RANDOM = "random"


@dataclass(frozen=True)
class TableAccess:
    """One relation referenced by a transaction type.

    Attributes:
        relation: relation name (table or index).
        pattern: sequential scan or random access.
        pages_per_execution: for RANDOM accesses, how many pages a single
            execution of the transaction touches in this relation.  Ignored
            for SCAN accesses (a scan touches every page).
        selectivity: fraction of the relation that the *aggregate* of many
            executions with different parameters eventually touches.  1.0
            means repeated random accesses cover the whole relation (the
            common case for primary-key lookups with uniformly distributed
            parameters); smaller values model hot subsets such as the
            "new products" slice of the item table.
    """

    relation: str
    pattern: AccessPattern = AccessPattern.RANDOM
    pages_per_execution: int = 4
    selectivity: float = 1.0

    def __post_init__(self) -> None:
        if self.pages_per_execution < 1:
            raise ValueError("pages_per_execution must be >= 1")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1], got %r" % (self.selectivity,))

    @property
    def is_scan(self) -> bool:
        return self.pattern is AccessPattern.SCAN


def scan(relation: str, selectivity: float = 1.0) -> TableAccess:
    """A sequential scan over ``relation``."""
    return TableAccess(relation=relation, pattern=AccessPattern.SCAN, selectivity=selectivity)


def lookup(relation: str, pages: int = 4, selectivity: float = 1.0) -> TableAccess:
    """A random (index-driven) access touching ``pages`` pages per execution."""
    return TableAccess(
        relation=relation,
        pattern=AccessPattern.RANDOM,
        pages_per_execution=pages,
        selectivity=selectivity,
    )


@dataclass(frozen=True)
class WriteSpec:
    """Tables written by an update transaction.

    Attributes:
        relation: the table written (indices on it are dirtied implicitly).
        rows: average number of rows inserted/updated per execution.
        pages_dirtied: average number of distinct pages dirtied per
            execution.  The paper stresses (Section 5.5) that small logical
            updates dirty whole 8 KB pages scattered over the database,
            which is what makes update propagation expensive.
    """

    relation: str
    rows: int = 1
    pages_dirtied: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.pages_dirtied < 1:
            raise ValueError("pages_dirtied must be >= 1")


def write(relation: str, rows: int = 1, pages_dirtied: int = 1) -> WriteSpec:
    """Convenience constructor for a :class:`WriteSpec`."""
    return WriteSpec(relation=relation, rows=rows, pages_dirtied=pages_dirtied)


@dataclass(frozen=True)
class TransactionType:
    """A parameterized transaction type (one TPC-W / RUBiS interaction).

    Attributes:
        name: unique type name (e.g. ``"BestSeller"``).
        reads: relations read and how.
        writes: tables written (empty for read-only types).
        cpu_ms: CPU time consumed per execution when all data is memory
            resident (pure compute: query processing, joins, sorting).
    """

    name: str
    reads: Tuple[TableAccess, ...] = ()
    writes: Tuple[WriteSpec, ...] = ()
    cpu_ms: float = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transaction type requires a name")
        if self.cpu_ms <= 0:
            raise ValueError("cpu_ms must be positive")
        seen = set()
        for access in self.reads:
            if access.relation in seen:
                raise ValueError(
                    "transaction type %r references relation %r twice" % (self.name, access.relation)
                )
            seen.add(access.relation)

    @property
    def is_update(self) -> bool:
        return bool(self.writes)


def transaction_type(name: str, reads: Sequence[TableAccess] = (),
                     writes: Sequence[WriteSpec] = (),
                     cpu_ms: float = 10.0) -> TransactionType:
    """Convenience constructor accepting plain sequences."""
    return TransactionType(
        name=name,
        reads=tuple(reads),
        writes=tuple(writes),
        cpu_ms=cpu_ms,
    )


@dataclass(frozen=True)
class Mix:
    """A workload mix: relative frequency of each transaction type.

    Weights need not sum to one; they are normalised on sampling.
    """

    name: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("mix %r has no transaction types" % (self.name,))
        for type_name, weight in self.weights.items():
            if weight < 0:
                raise ValueError("mix %r has negative weight for %r" % (self.name, type_name))
        if sum(self.weights.values()) <= 0:
            raise ValueError("mix %r has zero total weight" % (self.name,))
        # Sampling runs once per generated transaction, so the name list and
        # the cumulative weights are precomputed instead of being rebuilt on
        # every draw (``rng.choices`` with ``cum_weights`` skips its internal
        # accumulate pass and draws identically to passing ``weights``).
        names = list(self.weights.keys())
        cum_weights: List[float] = []
        total = 0.0
        for type_name in names:
            total += self.weights[type_name]
            cum_weights.append(total)
        object.__setattr__(self, "_sample_names", names)
        object.__setattr__(self, "_sample_cum_weights", cum_weights)
        object.__setattr__(self, "_sample_total", cum_weights[-1] + 0.0)
        object.__setattr__(self, "_sample_hi", len(names) - 1)

    def sample(self, rng: random.Random) -> str:
        """Draw one transaction type name according to the mix weights.

        Performs exactly the draw ``rng.choices(names, cum_weights=...)``
        would perform (one ``rng.random()``, one bisect over the precomputed
        cumulative weights) without re-validating the weights on every call.
        """
        return self._sample_names[
            bisect.bisect(self._sample_cum_weights,
                          rng.random() * self._sample_total, 0, self._sample_hi)]


@dataclass
class WorkloadSpec:
    """A complete workload: schema, transaction types and named mixes."""

    name: str
    schema: "Schema"
    types: Dict[str, TransactionType]
    mixes: Dict[str, Mix]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check referential integrity between types, mixes and the schema."""
        for txn_type in self.types.values():
            for access in txn_type.reads:
                if access.relation not in self.schema:
                    raise ValueError(
                        "type %r reads unknown relation %r" % (txn_type.name, access.relation)
                    )
            for write_spec in txn_type.writes:
                if write_spec.relation not in self.schema:
                    raise ValueError(
                        "type %r writes unknown relation %r" % (txn_type.name, write_spec.relation)
                    )
                if not self.schema[write_spec.relation].is_table:
                    raise ValueError(
                        "type %r writes to %r which is not a table"
                        % (txn_type.name, write_spec.relation)
                    )
        for mix in self.mixes.values():
            for type_name in mix.weights:
                if type_name not in self.types:
                    raise ValueError("mix %r references unknown type %r" % (mix.name, type_name))

    def mix(self, name: str) -> Mix:
        if name not in self.mixes:
            raise KeyError("workload %r has no mix named %r" % (self.name, name))
        return self.mixes[name]

    def type(self, name: str) -> TransactionType:
        if name not in self.types:
            raise KeyError("workload %r has no transaction type %r" % (self.name, name))
        return self.types[name]

