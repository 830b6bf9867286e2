"""The certifier: global certification, commit ordering and the persistent log.

Tashkent's concurrency control is generalized snapshot isolation (GSI).
Read-only transactions commit locally; update transactions are sent to the
certifier at commit time, which "processes the writeset to detect
write-write conflicts by comparing table and field identifiers for matches
against writesets from recently committed update transactions.
Successfully certified writesets are recorded in a persistent log, thus
creating a global order" (Section 4.1).

The certifier here is the logical component: certification decisions, the
log, conflict detection, lag notifications and log truncation.  Latency of
the round trip (network plus certification service time) is modelled by the
replica proxy.  The certifier is also replicated here, as in the paper (a
leader plus two backups): every commit is mirrored to plain backup
certifiers, and :meth:`Certifier.fail_over` promotes the most up-to-date
backup's log in place, so replicas, stats, lag subscriptions and the RPC
dedup cache keep talking to the same object across a leader crash.

Conflict detection is indexed: alongside the log, the certifier maintains an
inverted index ``{relation: {key: version}}`` holding, for every key whose
*last* committed writer is still in the log, that writer's version.
Certifying a writeset is then O(|writeset|) -- one index probe per written
key -- instead of a scan over every writeset committed since the
transaction's snapshot, which made certification O(log length) per request
and dominated paper-scale runs.  Keyed by relation first, the index builds
no tuple per key: its int keys are the ones the writesets already hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Type, cast)

from repro.replication.writeset import CertifiedWriteSet, WriteItem, WriteSet

#: How many recent request decisions the certifier caches per origin
#: replica, for idempotent at-least-once RPC.  A proxy keeps one round trip
#: in flight, so the window only needs to cover responses still wandering
#: the network when newer requests arrive; 16 is generous.
RPC_DEDUP_WINDOW = 16
#: Versions a replica may fall behind the certifier before the certifier
#: sends it a lag notification (Section 4.2).
LAG_NOTIFICATION_THRESHOLD = 25


class CertificationResult(NamedTuple):
    """Outcome of one certification request.

    A NamedTuple rather than a dataclass: one is constructed per
    certification request, and tuple construction is C-level -- the
    dataclass ``__init__`` was visible in certification-path profiles.
    """

    committed: bool
    version: int
    conflict_with: Optional[int] = None   # commit version of the conflicting writeset


#: ``tuple.__new__`` builds a ``CertificationResult`` without going through
#: NamedTuple's generated Python-level ``__new__`` -- one construction per
#: certified request, so the wrapper shows up on the hot path.  The cast
#: gives the call site the concrete result type.
_RESULT_NEW = cast(
    "Callable[[Type[CertificationResult], Tuple[bool, int, Optional[int]]],"
    " CertificationResult]",
    tuple.__new__)


@dataclass
class CertifierStats:
    requests: int = 0
    commits: int = 0
    aborts: int = 0
    notifications_sent: int = 0
    batches: int = 0            # batched round trips served (certify_batch calls)
    dedup_hits: int = 0         # retried/duplicated RPCs answered from cache
    stale_requests: int = 0     # retransmissions older than the dedup window


class _RpcDedupState:
    """Per-origin at-least-once RPC dedup state (see :meth:`Certifier.certify_rpc`).

    ``latest`` is the highest request id ever served for the origin;
    ``window`` maps recent request ids to their cached decisions, bounded to
    :data:`RPC_DEDUP_WINDOW` entries in insertion (= request-id) order.
    """

    __slots__ = ("latest", "window")

    def __init__(self) -> None:
        self.latest = 0
        self.window: Dict[int, List[CertificationResult]] = {}


class LagSubscriptionIndex:
    """Replica lag cursors bucketed by the version at which they need a nudge.

    The paper's propagation scheme sends a lag notification when a replica
    falls ``LAG_NOTIFICATION_THRESHOLD`` versions behind the certifier
    (Section 4.2).  The naive implementation re-derived that per commit
    batch by scanning *every* live replica's applied cursor -- O(replicas)
    work on the commit path.  This index inverts the check: each replica
    registers its applied-version cursor, which maps to the version at
    which the replica will cross the threshold (``applied + threshold``,
    the *notify-at* version).  Those notify-at versions live in a min-heap,
    so a commit batch pops exactly the replicas whose threshold the new
    ``current_version`` crossed -- O(notified log subscribers), and O(1)
    when nobody crossed, independent of cluster size.

    Heap entries are invalidated lazily: every cursor advance pushes a
    fresh ``(notify_at, replica_id)`` pair and records it as the armed one;
    stale pairs are discarded when popped (their notify-at version is at
    most ``armed + threshold``, so the advancing ``current_version`` always
    drains them).  A popped replica is *disarmed* until its cursor next
    advances -- exactly the cluster's one-notification-in-flight dedup:
    the pull a notification triggers always advances the cursor, which
    re-arms the subscription at the new lag target.
    """

    __slots__ = ("_armed", "_heap")

    #: armed-state sentinel: subscribed, but waiting for a cursor advance
    #: before the replica can cross the threshold again.
    _DISARMED = -1

    def __init__(self) -> None:
        # replica id -> armed notify-at version (_DISARMED after a pop).
        self._armed: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []

    def subscribe(self, replica_id: int, applied_version: int) -> None:
        """Register (or re-register) a replica's propagation cursor."""
        notify_at = applied_version + LAG_NOTIFICATION_THRESHOLD
        self._armed[replica_id] = notify_at
        heappush(self._heap, (notify_at, replica_id))

    def unsubscribe(self, replica_id: int) -> None:
        """Drop a replica that left service (its heap entries decay lazily)."""
        self._armed.pop(replica_id, None)

    def advanced(self, replica_id: int, applied_version: int) -> None:
        """The replica's cursor moved: re-arm it at the new lag target."""
        armed = self._armed
        if replica_id in armed:
            notify_at = applied_version + LAG_NOTIFICATION_THRESHOLD
            armed[replica_id] = notify_at
            heappush(self._heap, (notify_at, replica_id))

    def crossed(self, current_version: int) -> Tuple[int, ...]:
        """Pop the replicas whose lag crossed the threshold, ascending by
        notify-at version then replica id (deterministic regardless of the
        order cursors advanced in).  The common no-crosser case is a single
        heap-top comparison."""
        heap = self._heap
        if not heap or heap[0][0] > current_version:
            return ()
        armed = self._armed
        out = []
        disarmed = self._DISARMED
        while heap and heap[0][0] <= current_version:
            notify_at, replica_id = heappop(heap)
            if armed.get(replica_id) == notify_at:
                armed[replica_id] = disarmed
                out.append(replica_id)
        return tuple(out)


class Certifier:
    """Certifies writesets, orders commits and retains the writeset log.

    With ``backups > 0`` the certifier is the leader of a replicated group:
    every commit is synchronously mirrored to ``backups`` plain certifiers,
    so :meth:`fail_over` loses no committed transaction.
    """

    def __init__(self, backups: int = 0) -> None:
        if backups < 0:
            raise ValueError("number of backups cannot be negative")
        #: Lag subscriptions of the live replicas (the cluster registers the
        #: proxies' applied-version cursors here); a commit batch asks
        #: :meth:`LagSubscriptionIndex.crossed` for the replicas to notify
        #: instead of scanning every replica's cursor.
        self.subscriptions = LagSubscriptionIndex()
        self.log: List[CertifiedWriteSet] = []
        self._log_offset = 0          # version of the first retained entry minus one
        #: Version of the most recently committed writeset (0 if none).
        #: Maintained as a plain attribute (== _log_offset + len(log));
        #: consulted on every lag check and certification.
        self.current_version = 0
        # Inverted index: relation -> {key: version of the last committed
        # writeset that wrote it}.  Entries at or below _log_offset are stale
        # (their writesets left the log) and are dropped when the log is
        # truncated, as is a relation left with no entry.
        self._last_writer: Dict[str, Dict[int, int]] = {}
        # At-least-once RPC dedup: per origin replica, the highest request id
        # ever served plus a bounded window of recent decisions, so a retried
        # or duplicated round trip is answered from cache instead of being
        # certified twice.  See :meth:`certify_rpc`.
        self.rpc_cache: Dict[int, _RpcDedupState] = {}
        self.stats = CertifierStats()
        #: Synchronous mirrors of the log; :meth:`fail_over` promotes one.
        self.backups: List[Certifier] = [Certifier() for _ in range(backups)]

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    @property
    def oldest_available_version(self) -> int:
        """Version of the oldest writeset still retained in the log.

        ``current_version + 1`` when the log is empty; a replica whose
        applied version is below ``oldest_available_version - 1`` cannot
        catch up from the log alone (recovery must restore the missing
        prefix from another copy, Section 3).
        """
        return self._log_offset + 1

    def certify(self, writeset: WriteSet, snapshot_version: int) -> CertificationResult:
        """Certify a single writeset executed against ``snapshot_version``.

        A one-request :meth:`certify_batch` that is not counted as a batch.
        """
        stats = self.stats
        results, _ = self.certify_batch(((writeset, snapshot_version),),
                                        self.current_version)
        stats.batches -= 1
        return results[0]

    def certify_batch(self, requests: Sequence[Tuple[WriteSet, int]],
                      since_version: int
                      ) -> Tuple[List[CertificationResult], List[CertifiedWriteSet]]:
        """Serve one proxy's batched certification round trip.

        ``requests`` is the FIFO list of ``(writeset, snapshot_version)``
        pairs a proxy accumulated during one round trip; they are certified
        in order, so commit versions respect per-proxy FIFO.  A writeset
        later in the batch conflicts with earlier commits of the same batch
        exactly as it would had they arrived as separate requests.

        The write-write conflict rule of (G)SI: a transaction aborts if any
        writeset committed after its snapshot -- and still within the
        retained log -- wrote one of its keys.  Each item costs one lookup of
        its relation's dict (a relation with none conflicts with nothing) and
        each key one probe of it; every key is probed before any index entry
        is written, and the reported ``conflict_with`` is the oldest such
        writeset.  The index records every item's keys, so a writeset
        carrying two items on one relation conflicts on all of them.

        Returns ``(results, piggyback)``: one :class:`CertificationResult`
        per request plus every writeset committed since ``since_version``
        (the requesting proxy's applied version), computed *after* the batch
        so it includes the batch's own commits.  The proxy applies the
        piggybacked writesets before committing locally or retrying, which
        is how the paper's responses keep replicas current (Section 4.2)
        and how an aborted transaction's retry sees a fresh snapshot.

        This is the certifier's hot path, and most round trips carry a
        single request, so the loop pays no per-batch setup beyond hoisting
        locals: stats are added once per batch and results are built with
        ``tuple.__new__``.
        """
        stats = self.stats
        count = len(requests)
        stats.batches += 1
        stats.requests += count
        last_writer = self._last_writer
        floor = self._log_offset
        log_append = self.log.append
        first = version = self.current_version
        results: List[CertificationResult] = []
        append_result = results.append
        new_result = _RESULT_NEW
        result_cls = CertificationResult
        for writeset, snapshot in requests:
            start = snapshot if snapshot > floor else floor
            conflict: Optional[int] = None
            items = writeset.items
            for item in items:
                writers = last_writer.get(item.relation)
                if writers is None:
                    continue
                for key in item.keys:
                    writer = writers.get(key)
                    if writer is not None and writer > start and \
                            (conflict is None or writer < conflict):
                        conflict = writer
            if conflict is not None:
                conflict = self._first_conflict(items, start, conflict)
                append_result(new_result(result_cls, (False, version, conflict)))
                continue
            version += 1
            log_append(CertifiedWriteSet(version, writeset))
            for item in items:
                writers = last_writer.get(item.relation)
                if writers is None:
                    writers = last_writer[item.relation] = {}
                for key in item.keys:
                    writers[key] = version
            append_result(new_result(result_cls, (True, version, None)))
        self.current_version = version
        stats.commits += version - first
        stats.aborts += count - (version - first)
        if self.backups and version > first:
            self._mirror(first)
        return results, self.writesets_since(since_version)

    def _mirror(self, first: int) -> None:
        """Append the log entries committed after ``first`` to every backup.

        Each writeset is certified at its commit version minus one, so it
        conflicts with nothing the backup already holds and commits at the
        same version as here; aborted requests never reach a backup.
        """
        committed = [(entry.writeset, entry.version - 1)
                     for entry in self.log[first - self._log_offset:]]
        for backup in self.backups:
            mirrored, _ = backup.certify_batch(committed, backup.current_version)
            for result in mirrored:
                if not result.committed:
                    raise RuntimeError("backup certifier diverged from the leader")

    def _first_conflict(self, items: Sequence[WriteItem], start: int, bound: int) -> int:
        """The oldest commit after ``start`` that wrote one of ``items``' keys.

        The index only knows each key's *last* writer, and ``bound`` is the
        oldest of those; an older writer of the same key may sit between
        ``start`` and ``bound``.  Runs on the abort path only, so scanning
        that stretch of the log costs nothing on commits.
        """
        mine = {(item.relation, key) for item in items for key in item.keys}
        offset = self._log_offset
        for entry in self.log[start - offset:bound - offset - 1]:
            for item in entry.writeset.items:
                relation = item.relation
                for key in item.keys:
                    if (relation, key) in mine:
                        return entry.version
        return bound

    def certify_rpc(self, origin_replica: int, request_id: int,
                    requests: Sequence[Tuple[WriteSet, int]],
                    since_version: int
                    ) -> Tuple[Optional[List[CertificationResult]],
                               List[CertifiedWriteSet]]:
        """Serve one *at-least-once* batched round trip, idempotently.

        Proxies stamp every round trip with a per-proxy monotonically
        increasing ``request_id`` and resend it (same id, same writeset
        objects) on timeout, so the same request can arrive here any number
        of times, in any order.  Three cases:

        * **fresh** (``request_id`` above everything seen from this origin):
          certified normally via :meth:`certify_batch`; the decision is
          cached.
        * **duplicate** (id still in the dedup window): answered from the
          cached decision -- the batch is *not* re-certified -- with a
          freshly computed piggyback, since the proxy's applied version may
          have moved between transmissions.
        * **stale** (id at or below the newest served id but outside the
          window): a long-delayed retransmission whose round trip the proxy
          has abandoned or already completed.  Returns ``(None, [])`` --
          certifying it would commit the same writesets twice.  Never
          happens within a window of :data:`RPC_DEDUP_WINDOW` retries, which
          a one-round-trip-in-flight proxy cannot exceed.

        :meth:`fail_over` swaps only the log, so the dedup state survives
        it: a batch retried across a fail-over is answered from cache.
        """
        cache = self.rpc_cache.get(origin_replica)
        if cache is None:
            cache = self.rpc_cache[origin_replica] = _RpcDedupState()
        window = cache.window
        cached = window.get(request_id)
        if cached is not None:
            self.stats.dedup_hits += 1
            return cached, self.writesets_since(since_version)
        if request_id <= cache.latest:
            self.stats.stale_requests += 1
            return None, []
        cache.latest = request_id
        results, piggyback = self.certify_batch(requests, since_version)
        window[request_id] = results
        while len(window) > RPC_DEDUP_WINDOW:
            del window[next(iter(window))]
        return results, piggyback

    # ------------------------------------------------------------------
    # Update propagation support
    # ------------------------------------------------------------------
    def writesets_since(self, version: int) -> List[CertifiedWriteSet]:
        """Committed writesets with versions greater than ``version``."""
        if version < self._log_offset:
            raise KeyError(
                "replica requests version %d but the log starts at %d; recovery is required"
                % (version, self._log_offset + 1)
            )
        return self.log[version - self._log_offset:]

    # ------------------------------------------------------------------
    # Log management
    # ------------------------------------------------------------------
    def truncate(self, oldest_needed_version: int) -> int:
        """Drop log entries no replica needs any more.  Returns entries dropped.

        Also drops the index entries whose writesets left the log, and every
        relation left with no entry: they can never win a conflict check
        (certification floors at the offset), so removing them only frees
        memory, keeping the index to exactly the keys whose last writer is
        still in the log.
        """
        for backup in self.backups:
            backup.truncate(oldest_needed_version)
        if oldest_needed_version <= self._log_offset:
            return 0
        drop = min(oldest_needed_version - self._log_offset, len(self.log))
        if drop <= 0:
            return 0
        del self.log[:drop]
        self._log_offset += drop
        offset = self._log_offset
        last_writer = self._last_writer
        for relation in list(last_writer):
            writers = last_writer[relation]
            for key in [key for key, version in writers.items() if version <= offset]:
                del writers[key]
            if not writers:
                del last_writer[relation]
        return drop

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def fail_over(self) -> None:
        """Promote the most up-to-date backup after the leader crashed.

        The backup's log, offset, version and conflict index move into this
        object, and the backup leaves the group: a crashed leader cannot
        serve as a backup, so the group shrinks by one.  Stats, lag
        subscriptions and the RPC dedup cache are the service's, not the
        crashed machine's, so they stay.  Raises if no backup exists.
        """
        if not self.backups:
            raise RuntimeError("no backup certifier available for fail-over")
        best = max(self.backups, key=lambda c: c.current_version)
        self.backups.remove(best)
        self.log = best.log
        self._log_offset = best._log_offset
        self.current_version = best.current_version
        self._last_writer = best._last_writer

    def log_is_total_order(self) -> bool:
        """Invariant check used by tests: versions are dense and increasing."""
        expected = self._log_offset + 1
        for entry in self.log:
            if entry.version != expected:
                return False
            expected += 1
        return True
