"""Machine-checked GSI consistency invariants for a finished run.

A chaos campaign is only as convincing as its oracle.  This module audits a
cluster after (or during) a run against the guarantees generalized snapshot
isolation makes regardless of message loss, duplication, reordering,
partitions, retries and fail-over:

* **log-total-order** -- the certifier log is a dense, strictly increasing
  sequence of commit versions (and every backup mirrors the leader).
* **no-double-certify** -- no writeset object was certified twice.  Each
  execution builds its writeset once and RPC retries resend that object, so
  a duplicated or retried request that slipped past the certifier's dedup
  cache would append the *same object* to the log twice.
* **replica-prefix** -- every replica's applied state is a prefix of the
  log: its cursor never runs ahead of the certifier.
* **apply-exactly-once** -- within the audited window, every committed
  writeset at or below a replica's cursor was delivered to it exactly once
  (own-origin writesets exactly zero times: their effects are local), no
  matter how many duplicated responses, overlapping pulls or recovery
  replays carried it.  Detected with per-replica *apply ledgers* -- a
  ``{version: delivery_count}`` dict armed only when a checker is installed
  (the usual zero-overhead contract: no checker, no ledger, no cost).
* **in-flight-resolved** -- after the harness quiesces the cluster, no
  transaction is still admitted, queued, certifying or live at any replica
  the cluster built (in service, draining, crashed or retired), the routing
  table's outstanding counters agree with those live tables, and no lag
  notification is pending.

Construct the checker (it calls ``cluster.attach(self)``) before the run,
so every replica -- including later joiners -- carries a ledger::

    cluster = ReplicatedCluster(...)
    checker = ConsistencyChecker(cluster)
    ... run, inject faults ...
    report = checker.check()
    assert report.ok, report.summary()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from repro.replication.certifier import Certifier
    from repro.replication.cluster import ReplicatedCluster
    from repro.replication.replica import Replica

#: Violation.replica_id when the finding is not about one replica.
NO_REPLICA = -1


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the run."""

    invariant: str
    detail: str
    replica_id: int = NO_REPLICA

    def __str__(self) -> str:
        where = "" if self.replica_id == NO_REPLICA \
            else " (replica %d)" % self.replica_id
        return "[%s]%s %s" % (self.invariant, where, self.detail)


@dataclass
class InvariantReport:
    """Outcome of one audit pass."""

    violations: List[Violation] = field(default_factory=list)
    #: Audit coverage counters (log entries examined, replicas audited,
    #: ledger deliveries reconciled) so "zero violations" can be told apart
    #: from "checked nothing".
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            coverage = ", ".join("%s=%d" % kv for kv in sorted(self.checked.items()))
            return "all invariants hold (%s)" % coverage
        lines = ["%d invariant violation(s):" % len(self.violations)]
        lines.extend("  " + str(v) for v in self.violations)
        return "\n".join(lines)

    def raise_if_violated(self) -> None:
        if not self.ok:
            raise AssertionError(self.summary())


class ConsistencyChecker:
    """Audits a :class:`~repro.replication.cluster.ReplicatedCluster`.

    Constructing the checker attaches it to the cluster, which arms an
    apply ledger on every replica, joiners included (restarts keep
    theirs).  Without a checker no ledger exists and the apply path stays
    on its zero-overhead fast path.
    """

    def __init__(self, cluster: "ReplicatedCluster") -> None:
        self.cluster = cluster
        cluster.attach(self)

    @staticmethod
    def instrument_replica(replica: "Replica") -> None:
        """Give ``replica`` an apply ledger (idempotent)."""
        if replica.apply_ledger is None:
            replica.apply_ledger = {}

    def instrument_cluster(self, cluster: "ReplicatedCluster") -> None:
        """Nothing cluster-wide to arm: the audit reads state at check time."""

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def check(self, expect_quiesced: bool = True) -> InvariantReport:
        """Audit the cluster's current state.

        ``expect_quiesced=True`` (the default, for end-of-run audits after
        the harness healed partitions and drained the event queue) also
        checks the in-flight-resolved invariant; pass False to audit a
        still-running cluster, where in-flight work is legitimate.
        """
        report = InvariantReport()
        cluster = self.cluster
        certifier = cluster.certifier

        self._check_log(report, certifier)
        # Every replica that is not retired: in service, draining, or
        # crashed but restorable (in id order).
        replicas = cluster.returnable_replicas()
        for replica in replicas:
            self._check_replica_prefix(report, replica, certifier)
            self._check_apply_ledger(report, replica, certifier)
        if expect_quiesced:
            for replica in replicas:
                self._check_replica_quiesced(report, replica)
            self._check_cluster_quiesced(report)
        report.checked["replicas"] = len(replicas)
        return report

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_log(self, report: InvariantReport, certifier: "Certifier") -> None:
        if not certifier.log_is_total_order():
            report.violations.append(Violation(
                "log-total-order",
                "leader log versions are not dense and increasing"))
        expected_version = certifier.oldest_available_version - 1 + len(certifier.log)
        if certifier.current_version != expected_version:
            report.violations.append(Violation(
                "log-total-order",
                "current_version=%d but offset+len(log)=%d"
                % (certifier.current_version, expected_version)))
        seen_writesets = set()
        for entry in certifier.log:
            marker = id(entry.writeset)
            if marker in seen_writesets:
                report.violations.append(Violation(
                    "no-double-certify",
                    "writeset of version %d (origin replica %d) appears "
                    "in the log more than once"
                    % (entry.version, entry.writeset.origin_replica)))
            seen_writesets.add(marker)
        report.checked["log_entries"] = len(certifier.log)
        # A replicated certifier's backups must mirror the leader exactly
        # (synchronous mirroring: no committed transaction may be lost to a
        # fail-over).
        for i, backup in enumerate(certifier.backups):
            if backup.current_version != certifier.current_version:
                report.violations.append(Violation(
                    "log-total-order",
                    "backup %d is at version %d, leader at %d"
                    % (i, backup.current_version, certifier.current_version)))
            if not backup.log_is_total_order():
                report.violations.append(Violation(
                    "log-total-order",
                    "backup %d log versions are not dense and increasing" % i))

    def _check_replica_prefix(self, report: InvariantReport,
                              replica: "Replica", certifier: "Certifier") -> None:
        applied = replica.applied_version
        if applied > certifier.current_version:
            report.violations.append(Violation(
                "replica-prefix",
                "applied_version %d is ahead of the certifier's %d"
                % (applied, certifier.current_version),
                replica.replica_id))

    def _check_apply_ledger(self, report: InvariantReport,
                            replica: "Replica", certifier: "Certifier") -> None:
        ledger = replica.apply_ledger
        if ledger is None:
            report.violations.append(Violation(
                "apply-exactly-once",
                "no apply ledger armed (checker installed after the run?)",
                replica.replica_id))
            return
        replica_id = replica.replica_id
        applied = replica.applied_version
        # Audit window: versions above both the replica's ledger floor
        # (recovery may restore a truncated prefix from another copy,
        # bypassing delivery) and the certifier's retention horizon (we can
        # only cross-check deliveries against retained log entries).
        floor = max(replica.apply_ledger_floor,
                    certifier.oldest_available_version - 1)
        audited = 0
        for entry in certifier.log:
            version = entry.version
            if version <= floor or version > applied:
                continue
            audited += 1
            count = ledger.get(version, 0)
            own = entry.writeset.origin_replica == replica_id
            if own:
                if count != 0:
                    report.violations.append(Violation(
                        "apply-exactly-once",
                        "own writeset of version %d was re-delivered %d time(s)"
                        % (version, count), replica_id))
            elif count == 0:
                report.violations.append(Violation(
                    "apply-exactly-once",
                    "committed writeset of version %d (origin %d) was never "
                    "delivered although the cursor passed it"
                    % (version, entry.writeset.origin_replica), replica_id))
            elif count > 1:
                report.violations.append(Violation(
                    "apply-exactly-once",
                    "writeset of version %d was delivered %d times"
                    % (version, count), replica_id))
        for version, count in ledger.items():
            if version > applied:
                report.violations.append(Violation(
                    "apply-exactly-once",
                    "delivery recorded for version %d beyond the applied "
                    "cursor %d" % (version, applied), replica_id))
        report.checked["ledger_entries"] = \
            report.checked.get("ledger_entries", 0) + audited

    def _check_replica_quiesced(self, report: InvariantReport,
                                replica: "Replica") -> None:
        replica_id = replica.replica_id
        if replica._cert_inflight or replica._cert_queue:
            report.violations.append(Violation(
                "in-flight-resolved",
                "certification still in flight (inflight=%s queued=%d)"
                % (replica._cert_inflight, len(replica._cert_queue)),
                replica_id))
        if replica.alive and (replica.active or replica.waiting):
            report.violations.append(Violation(
                "in-flight-resolved",
                "admission not drained (active=%d queued=%d)"
                % (replica.active, len(replica.waiting)), replica_id))

    def _check_cluster_quiesced(self, report: InvariantReport) -> None:
        """Every replica the cluster built, retired ones included, has an
        empty live table that its routing counter agrees with."""
        cluster = self.cluster
        outstanding = cluster.routing.outstanding
        for replica in cluster.built_replicas.values():
            live = len(replica._live)
            counted = outstanding.get(replica.replica_id, 0)
            if live or counted:
                report.violations.append(Violation(
                    "in-flight-resolved",
                    "%d transaction(s) still live, routing counts %d"
                    % (live, counted), replica.replica_id))
        if cluster._notify_pending:
            report.violations.append(Violation(
                "in-flight-resolved",
                "lag notifications still pending for replicas %s"
                % sorted(cluster._notify_pending)))
