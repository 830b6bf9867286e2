"""One database replica: the paper's per-replica proxy, engine and resources.

Tashkent is "pure replication middleware": a transparent proxy sits in front
of every database replica (Figure 1).  :class:`Replica` is that proxy plus
the database it fronts.  It

* performs admission control with the Gatekeeper algorithm so bursts do not
  overload the database [ENTZ04]: at most ``MAX_CONCURRENCY`` transactions
  run inside the database, and further arrivals wait in a FIFO queue;
* forwards certification requests to the certifier -- batched, with at most
  one round trip in flight -- and applies the remote writesets piggybacked
  on the response before committing or retrying;
* pulls new updates periodically (every 500 ms in the prototype) when the
  replica has been idle, and reacts to the certifier's lag notifications;
* and, for Tashkent+, stores the update-filtering table list and forwards
  only the writesets for those tables to the database (Section 4.2.3).

The replica wires the storage engine's resource demands into the event loop.
Per-type costs -- CPU seconds, the commit write-back time and the bytes it
writes -- are read from the :class:`~repro.storage.engine.AccessPlan` that
``engine.execute`` returns, never recomputed per transaction; only the read
misses, and their disk time under the disk model of
:mod:`repro.storage.disk`, are derived per execution.
Each transaction is tracked by a slotted :class:`TransactionContext` that
moves through an explicit lifecycle::

    ADMITTED -> CPU -> READS -> CERTIFYING -> DONE

* an admitted transaction executes against the local buffer pool, queues
  for the CPU, then queues for the disk channel to read its misses
  (ADMITTED -> CPU -> READS);
* read-only transactions then commit locally (GSI lets them run entirely at
  the replica, Section 4.1);
* update transactions enter CERTIFYING: the replica batches certification
  requests, keeping at most one round trip to the certifier outstanding.
  Update transactions that reach certification while a round trip is in
  flight join the next batch, so concurrent updates share the
  ``CERTIFICATION_LATENCY_S`` they would each have paid alone
  (Sections 3.2/4.2);
* the certification response piggybacks every writeset committed since the
  replica's applied version.  The replica applies those *before* delivering
  outcomes, so a committed transaction leaves the replica current and an
  aborted transaction retries against a fresh snapshot instead of burning
  its retries on the same stale one while waiting for the 500 ms pull;
* on commit the dirty pages are handed to the background writer (no fsync
  on the commit path -- Tashkent unites durability with ordering in the
  middleware), and the cluster propagates the writeset to the other
  replicas;
* remote writesets arriving through update propagation are applied as
  background CPU and disk work, competing with the replica's foreground
  transactions for the same resources -- the contention update filtering
  removes.

Generalized snapshot isolation keeps two kinds of version, each stored
once.  :attr:`Replica.applied_version` is the replica's one
applied-version cursor, and :meth:`Replica._advance` is the one place that
moves it.  A transaction's snapshot is that cursor when its attempt starts;
``_start`` copies it into :attr:`TransactionContext.snapshot`, the only
per-attempt copy, which certification reads and the cluster's log
truncation floor scans.

The context is the only per-transaction object.  The replica keeps its
submitted contexts in a live table, in dispatch order, until ``_finish``
deletes them or a crash or expired drain fails them all
(:meth:`Replica.fail_in_flight`).  Every continuation is fenced by the
replica's epoch: a crash bumps the epoch, so continuations (CPU/disk
completions, the certification round trip) scheduled before the crash are
dropped when they fire.  The fence is the only at-most-once guard; a
completion that slipped past it would raise on the missing table entry.
A crashed replica, or a cold joiner, comes back through
:meth:`Replica.recover`: it restarts with a cold cache and no filter, and
replays what it missed from the certifier's log.

When the replica is built with an unreliable ``channel``
(:class:`~repro.net.channel.Channel`), the certification round trip runs as
an *at-least-once RPC*: each batch gets a per-replica monotonically
increasing request id, is retransmitted on timeout with capped exponential
backoff and deterministic jitter, and is answered idempotently by the
certifier's dedup cache (:meth:`~repro.replication.certifier.Certifier.\
certify_rpc`), so duplication and retries never certify a writeset twice.
After ``RPC_MAX_ATTEMPTS`` unanswered transmissions the replica declares the
certifier unreachable and sheds the batch's update transactions with
``certifier-unreachable`` aborts -- read-only transactions keep committing
from the local snapshot, the GSI-faithful degradation.  Without a channel
(the default) the round trip is the exact single ``sim.schedule`` it always
was, preserving seeded outputs bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Set)

from repro.obs.trace import CERTIFY, CPU, QUEUE, READS, STAGE_NAMES, TxnTrace
from repro.replication.certifier import Certifier
from repro.replication.writeset import CertifiedWriteSet
from repro.sim.metrics import MetricsCollector
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.disk import effective_write_bytes, read_seconds, write_seconds
from repro.storage.engine import AccessPlan, DatabaseEngine
from repro.workloads.spec import TransactionType

if TYPE_CHECKING:
    from repro.core.routing import RoutingTable
    from repro.obs.hub import ObservabilityHub

# Callback invoked when a submitted transaction finishes (committed=True/False).
CompletionCallback = Callable[[bool], None]

#: Gatekeeper limit on transactions concurrently inside the database;
#: further arrivals wait in the replica's FIFO ``waiting`` queue.
MAX_CONCURRENCY = 8
#: Attempts a transaction gets before a certification abort is final.
MAX_RETRIES = 3
#: One round trip to the certifier (network + certification service time).
CERTIFICATION_LATENCY_S = 0.004
#: Certification requests one round trip may carry.  The replica keeps at
#: most one round trip in flight; update transactions reaching certification
#: while it is outstanding join the next batch, sharing its latency.
MAX_CERTIFICATION_BATCH = 64
#: Channel mode only (the direct path cannot lose messages): how long the
#: replica waits for a certification response before retransmitting, the
#: first delay and the cap of the exponential backoff between attempts, and
#: the transmissions per round trip before the certifier is declared
#: unreachable and the batch is shed.
RPC_TIMEOUT_S = 0.02
RPC_BACKOFF_BASE_S = 0.01
RPC_BACKOFF_CAP_S = 0.5
RPC_MAX_ATTEMPTS = 6


class TransactionContext:
    """The slotted lifecycle state of one transaction at a replica.

    The only per-transaction object: allocated once at submission and
    reused across retries (a retry re-runs the pipeline with a fresh
    snapshot but keeps the context, its admission slot and its attempt
    counter).  Stage continuations are bound methods on this object, so the
    steady-state transaction path allocates one context per transaction
    instead of a closure per stage per attempt.
    """

    ADMITTED = 0
    CPU = 1
    READS = 2
    CERTIFYING = 3
    DONE = 4

    __slots__ = ("replica", "txn_type", "submitted_at", "on_done", "attempt",
                 "state", "epoch", "txn_id", "snapshot", "plan", "read_bytes",
                 "read_seconds", "writeset", "trace")

    def __init__(self, replica: "Replica", txn_type: TransactionType,
                 submitted_at: float, on_done: CompletionCallback) -> None:
        self.replica = replica
        self.txn_type = txn_type
        self.submitted_at = submitted_at
        self.on_done = on_done
        self.attempt = 1
        self.state = TransactionContext.ADMITTED
        self.epoch = replica.epoch
        self.txn_id = 0
        # The replica's applied version when this attempt started; set by
        # Replica._start (unused while the context is ADMITTED and queued).
        self.snapshot = 0
        # Set by each (re-)execution in Replica._start: the type's compiled
        # plan, and the bytes this attempt missed and their disk read time.
        self.plan: Optional[AccessPlan] = None
        self.read_bytes = 0.0
        self.read_seconds = 0.0
        self.writeset = None
        # Per-transaction trace state; None unless an ObservabilityHub with
        # a tracer is attached (the zero-overhead fast path).
        self.trace: Optional[TxnTrace] = None

    # Stage continuations (scheduled on resources / the event queue) -------
    def after_cpu(self) -> None:
        replica = self.replica
        if replica.epoch != self.epoch:
            return
        self.state = TransactionContext.READS
        if self.trace is not None:
            replica._trace_lap(self, CPU)
        read_time = self.read_seconds
        if read_time > 0:
            replica.resources.disk.acquire(read_time, self.after_reads)
        else:
            self.after_reads()

    def after_reads(self) -> None:
        replica = self.replica
        if replica.epoch != self.epoch:
            return
        if self.trace is not None:
            replica._trace_lap(self, READS)
        if self.writeset is None:
            replica._finish(self, committed=True)
            return
        self.state = TransactionContext.CERTIFYING
        replica._enqueue_certification(self)


class Replica:
    """A single database replica participating in the replicated cluster."""

    def __init__(self, replica_id: int, sim: Simulator, engine: DatabaseEngine,
                 resources: ReplicaResources, certifier: Certifier,
                 channel=None) -> None:
        self.replica_id = replica_id
        self.sim = sim
        self.engine = engine
        # Every writeset the engine builds carries this replica as its origin.
        engine.replica_id = replica_id
        self.resources = resources
        self.certifier = certifier
        # Gatekeeper admission: contexts holding one of the MAX_CONCURRENCY
        # slots, the FIFO of contexts waiting for one, and a running count
        # of slots granted.
        self.active = 0
        self.waiting: Deque[TransactionContext] = deque()
        self.admitted_total = 0
        # Update filtering: the single source of truth for which tables'
        # writesets reach the database.  None means apply everything; a set
        # means apply only those tables.  The predicate is evaluated per
        # item by ``engine.apply_writesets_fast``; nothing else
        # re-implements it.
        self.filter_tables: Optional[Set[str]] = None
        self.writesets_applied = 0
        self.writesets_filtered = 0
        self.metrics: Optional[MetricsCollector] = None
        # The cluster's routing table, installed like ``metrics``.
        self.routing: Optional["RoutingTable"] = None
        # Submitted, unfinished contexts in dispatch order (a dict, never a
        # set: fail_in_flight fails them in the order they arrived).
        self._live: Dict[TransactionContext, None] = {}
        # Observability hub (tracer + telemetry registry); None keeps every
        # instrumentation site on the no-op fast path, same contract as
        # ``metrics``.  Installed by ObservabilityHub.instrument_replica.
        self.obs: Optional["ObservabilityHub"] = None
        # Hook installed by the cluster: called once per certification batch
        # that committed at least one transaction, so the writesets (already
        # in the certifier's log) are propagated to the other replicas.
        self.on_local_commit: Optional[Callable[["Replica"], None]] = None
        self._next_txn_id = 0
        # Version of the last certifier-log entry this replica applied; only
        # _advance moves it.  Durable: it survives a crash, as on disk.
        self.applied_version = 0
        # Certification batching: transactions that reached
        # CERTIFYING and are waiting for the next round trip, plus whether a
        # round trip is currently in flight.
        self._cert_queue: List[TransactionContext] = []
        self._cert_inflight = False
        # Unreliable-network mode (repro.net): the channel this replica's
        # certification RPCs, pulls and notifications travel over.  None --
        # the default -- keeps the direct, loss-free schedule path.
        self.channel = channel
        # At-least-once RPC state: ids are per-replica monotonic and *never*
        # reset (not even across crash/restore), so the certifier's dedup
        # cache can tell a fresh request from a wandering retransmission.
        self._next_request_id = 0
        self._rpc_request_id = 0
        self._rpc_attempt = 0
        self._rpc_batch: Optional[List[TransactionContext]] = None
        self.rpc_timeouts = 0
        self.rpc_retries = 0
        self.rpc_stale_responses = 0
        self.shed_unreachable = 0
        # Consistency audit (repro.net.invariants): {version: times this
        # replica was handed that committed writeset}.  None -- the default
        # -- keeps the apply path free of ledger bookkeeping; the floor
        # exempts a prefix restored out-of-band during recovery.
        self.apply_ledger: Optional[dict] = None
        self.apply_ledger_floor = 0
        # Elasticity: a replica can crash mid-run and be restored later.
        # The epoch fences continuations of transactions that were in flight
        # when the crash happened: events from an older epoch are dropped.
        self.alive = True
        self.epoch = 0

    # ------------------------------------------------------------------
    # Transaction submission and admission
    # ------------------------------------------------------------------
    def submit(self, txn_type: TransactionType, submitted_at: float,
               on_done: CompletionCallback) -> None:
        """Accept a transaction from the load balancer and admit it: start
        it now if a slot is free, otherwise queue it (FIFO)."""
        if not self.alive:
            raise RuntimeError("replica %d is not alive" % (self.replica_id,))
        ctx = TransactionContext(self, txn_type, submitted_at, on_done)
        self._live[ctx] = None
        obs = self.obs
        if obs is not None and obs.tracer is not None:
            ctx.trace = TxnTrace(submitted_at)
        if self.active < MAX_CONCURRENCY:
            self.active += 1
            self.admitted_total += 1
            self._start(ctx)
        else:
            self.waiting.append(ctx)

    def set_filter(self, tables: Optional[Set[str]]) -> None:
        """Install (or clear) the update-filtering table list."""
        self.filter_tables = set(tables) if tables is not None else None

    def _start(self, ctx: TransactionContext) -> None:
        """Run (or re-run, on retry) the execution pipeline of ``ctx``."""
        if not self.alive:
            # Crashed between admission and start (or before a retry);
            # fail_in_flight has already failed the transaction's callback.
            return
        ctx.epoch = self.epoch
        ctx.state = TransactionContext.CPU
        ctx.txn_id = self._next_txn_id = self._next_txn_id + 1
        ctx.snapshot = self.applied_version
        trace = ctx.trace
        if trace is not None:
            # First attempt: the lap covers admission queueing.  Retries:
            # zero-length (the retry starts in the same event as the abort),
            # recorded anyway so every attempt shows in the trace.
            if trace.txn_id == 0:
                trace.txn_id = ctx.txn_id
            self._trace_lap(ctx, QUEUE)
        engine = self.engine
        plan, random_miss, sequential_miss, ctx.writeset = engine.execute(ctx.txn_type)
        ctx.plan = plan
        if random_miss or sequential_miss:
            ctx.read_bytes = random_miss + sequential_miss
            ctx.read_seconds = read_seconds(random_miss, sequential_miss)
        else:
            # A full cache hit reads nothing from disk.
            ctx.read_bytes = 0.0
            ctx.read_seconds = 0.0
        cpu_time = plan.cpu_seconds
        if cpu_time > 0:
            self.resources.cpu.acquire(cpu_time, ctx.after_cpu)
        else:
            ctx.after_cpu()

    # ------------------------------------------------------------------
    # Certification (batched per replica)
    # ------------------------------------------------------------------
    def _enqueue_certification(self, ctx: TransactionContext) -> None:
        """Queue ``ctx`` for the next certification round trip.

        The replica keeps at most one round trip to the certifier in flight;
        everything that reaches certification while one is outstanding is
        sent together when the next one departs, amortizing the round-trip
        latency and the per-transaction event-queue traffic.  The queue
        needs no bound: every queued context holds an admission slot, and
        so does the in-flight batch, so it never exceeds
        ``MAX_CONCURRENCY - 1``.
        """
        self._cert_queue.append(ctx)
        if not self._cert_inflight:
            self._dispatch_certification()

    def _dispatch_certification(self) -> None:
        """Send one batched certification round trip (up to the batch limit)."""
        queue = self._cert_queue
        batch = queue[:MAX_CERTIFICATION_BATCH]
        del queue[:MAX_CERTIFICATION_BATCH]
        self._cert_inflight = True
        epoch = self.epoch
        if self.channel is None:
            self.sim.schedule(CERTIFICATION_LATENCY_S,
                              lambda: self._complete_certification(batch, epoch))
            return
        self._next_request_id += 1
        self._rpc_request_id = self._next_request_id
        self._rpc_attempt = 0
        self._rpc_batch = batch
        self._send_rpc_attempt(epoch)

    def _complete_certification(self, batch: List[TransactionContext],
                                epoch: int) -> None:
        """The direct (loss-free) round trip returned: certify and deliver.

        The requests are certified in FIFO order, so commit versions respect
        the order in which this replica's transactions reached certification.
        """
        if self.epoch != epoch or not self.alive:
            # The replica crashed while the round trip was in flight.  The
            # batched transactions die uncertified; crash() reset their
            # admission slots and the batcher, so dropping the batch leaks
            # nothing.
            return
        results, piggyback = self.certifier.certify_batch(
            [(ctx.writeset, ctx.snapshot) for ctx in batch],
            since_version=self.applied_version)
        self._deliver_certification(batch, results, piggyback)

    def _deliver_certification(self, batch: List[TransactionContext],
                               results, piggyback) -> None:
        """Apply one round trip's outcome: piggyback, commits, aborts, next batch.

        The response carries every writeset committed since the replica's
        applied version (including this batch's own commits); applying them
        before delivering outcomes means committed transactions leave the
        replica current and aborted ones retry on a fresh snapshot.
        """
        replica_id = self.replica_id
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            commits = sum(1 for result in results if result.committed)
            tracer.span("cert-roundtrip", "certification",
                        self.sim.now - CERTIFICATION_LATENCY_S,
                        CERTIFICATION_LATENCY_S, replica_id, 0,
                        args={"batch": len(results), "commits": commits,
                              "aborts": len(results) - commits,
                              "piggybacked": len(piggyback)})
        committed_any = False
        for i, result in enumerate(results):
            if result.committed:
                # Dirty pages go to the background writer; the transaction
                # does not wait for them (durability lives in the middleware).
                write_time = batch[i].plan.write_seconds
                if write_time > 0:
                    self.resources.disk.add_background_work(write_time)
                committed_any = True
        if committed_any and self.on_local_commit is not None:
            # One notification covers the whole batch: every commit is
            # already registered at the certifier before the hook runs.
            self.on_local_commit(self)
        if piggyback:
            # Writesets missed since our snapshot, piggybacked on the
            # certification response (Section 4.2).  This also advances the
            # applied cursor past this batch's own commits.
            self.apply_remote_writesets(piggyback)
        for i, result in enumerate(results):
            ctx = batch[i]
            trace = ctx.trace
            if trace is not None:
                self._trace_lap(ctx, CERTIFY)
            if result.committed:
                self._finish(ctx, committed=True)
            else:
                retrying = ctx.attempt < MAX_RETRIES
                reason = "certification-conflict" if retrying else "retry-exhausted"
                if self.metrics is not None:
                    self.metrics.record_abort(reason)
                if trace is not None:
                    tracer.instant("abort", "txn", self.sim.now, replica_id,
                                   trace.txn_id,
                                   args={"reason": reason,
                                         "attempt": ctx.attempt})
                if retrying:
                    # Retry immediately on the same replica, keeping the
                    # admission slot; the piggybacked writesets were applied
                    # above, so the retry begins at a fresh snapshot.
                    ctx.attempt += 1
                    self._start(ctx)
                else:
                    self._finish(ctx, committed=False)
        if self._cert_queue:
            # More transactions reached certification while this round trip
            # was in flight: they depart together as the next batch.
            self._dispatch_certification()
        else:
            self._cert_inflight = False

    # ------------------------------------------------------------------
    # At-least-once certification RPC (channel mode only)
    # ------------------------------------------------------------------
    def _send_rpc_attempt(self, epoch: int) -> None:
        """Transmit the current round trip (first send or a retry).

        Both legs travel over the channel: the request leg runs the
        certifier-side handler (which answers duplicates from its dedup
        cache), the response leg delivers the decision back here.  A timeout
        armed alongside the send drives the retransmission; it is
        invalidated by whichever of {response, newer attempt, crash} happens
        first.
        """
        self._rpc_attempt += 1
        attempt = self._rpc_attempt
        request_id = self._rpc_request_id
        # Every attempt sends the writeset objects execute built, which is
        # what lets the consistency checker detect a double certification as
        # the same object appearing twice in the log.
        requests = [(ctx.writeset, ctx.snapshot) for ctx in self._rpc_batch]
        one_way = CERTIFICATION_LATENCY_S / 2.0
        channel = self.channel
        certifier = self.certifier

        def at_certifier() -> None:
            results, piggyback = certifier.certify_rpc(
                self.replica_id, request_id, requests,
                since_version=self.applied_version)
            if results is None:
                # Stale retransmission from a round trip this replica has
                # already resolved; the certifier refused to re-certify it.
                return
            channel.deliver(one_way, lambda: self._rpc_response(
                request_id, results, piggyback, epoch))

        self.sim.schedule(RPC_TIMEOUT_S,
                          lambda: self._rpc_timeout(request_id, attempt, epoch))
        channel.deliver(one_way, at_certifier)

    def _rpc_response(self, request_id: int, results, piggyback,
                      epoch: int) -> None:
        """A certification response arrived (possibly late or duplicated)."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            # Response to an abandoned round trip, or a duplicate of one
            # already delivered: the decision was (or will be) honoured by
            # the copy that won the race.
            self.rpc_stale_responses += 1
            obs = self.obs
            if obs is not None:
                obs.rpc_event(self.replica_id, "stale-response", self.sim.now,
                              {"request_id": request_id})
            return
        batch = self._rpc_batch
        self._rpc_batch = None
        self._deliver_certification(batch, results, piggyback)

    def _rpc_timeout(self, request_id: int, attempt: int, epoch: int) -> None:
        """No response within ``RPC_TIMEOUT_S``: back off and retransmit."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            return      # the response made it; this timer is stale
        if attempt != self._rpc_attempt:
            return      # a newer attempt is out with its own timer
        self.rpc_timeouts += 1
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "timeout", self.sim.now,
                          {"request_id": request_id, "attempt": attempt})
        if attempt >= RPC_MAX_ATTEMPTS:
            # Certifier declared unreachable: shed the batch so the
            # admission slots it holds go back to (read-only) transactions
            # that can still make progress locally.
            self._abandon_certification()
            return
        self.rpc_retries += 1
        self.sim.schedule(self._backoff_delay(attempt, request_id),
                          lambda: self._rpc_retry(request_id, attempt, epoch))

    def _rpc_retry(self, request_id: int, attempt: int, epoch: int) -> None:
        """The backoff elapsed: retransmit unless the round trip resolved."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            return
        if attempt != self._rpc_attempt:
            return
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "retry", self.sim.now,
                          {"request_id": request_id, "attempt": attempt + 1})
        self._send_rpc_attempt(epoch)

    def _backoff_delay(self, attempt: int, request_id: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The jitter decorrelates the replicas' retry storms after a shared
        partition heals without consuming any RNG stream (seeded outputs of
        fault-free channel runs stay reproducible): a hash of (request id,
        replica id, attempt) spreads delays over [delay, 1.25 * delay).
        """
        delay = RPC_BACKOFF_BASE_S * (2 ** (attempt - 1))
        if delay > RPC_BACKOFF_CAP_S:
            delay = RPC_BACKOFF_CAP_S
        mix = (request_id * 2654435761) ^ (self.replica_id * 40503) ^ attempt
        return delay * (1.0 + (mix % 1024) / 4096.0)

    def _abandon_certification(self) -> None:
        """Shed the in-flight batch: the certifier is unreachable.

        Its certification state is discarded *before* the contexts finish so
        a freed admission slot cannot race with it; if more updates queued
        behind the abandoned round trip, the next batch departs immediately
        (its own retries will probe the link).
        """
        batch = self._rpc_batch
        self._rpc_batch = None
        for ctx in batch:
            self._shed_certification(ctx)
        if self._cert_queue:
            self._dispatch_certification()
        else:
            self._cert_inflight = False

    def _shed_certification(self, ctx: TransactionContext) -> None:
        """Fail one update transaction with ``certifier-unreachable``.

        Not a certification abort (the certifier never saw it), so the
        golden-pinned ``aborts`` counter is untouched; the failure lands in
        the abort-reason taxonomy and the client re-issues.  Read-only
        transactions never pass through here -- they keep committing from
        the local snapshot while the link is down.
        """
        self.shed_unreachable += 1
        if self.metrics is not None:
            self.metrics.record_failure("certifier-unreachable")
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "shed", self.sim.now,
                          {"txn_id": ctx.txn_id})
            if ctx.trace is not None:
                obs.tracer.instant("abort", "txn", self.sim.now,
                                   self.replica_id, ctx.trace.txn_id,
                                   args={"reason": "certifier-unreachable",
                                         "attempt": ctx.attempt})
        self._finish(ctx, committed=False)

    def _finish(self, ctx: TransactionContext, committed: bool) -> None:
        # Raises for a context that already finished or was failed.
        del self._live[ctx]
        ctx.state = TransactionContext.DONE
        if ctx.trace is not None:
            self._trace_finish(ctx, committed)
        if self.metrics is not None and committed:
            now = self.sim.now
            plan = ctx.plan
            self.metrics.record_completion(
                now, now - ctx.submitted_at, plan.is_update, ctx.read_bytes,
                plan.effective_write_bytes)
        # Hand the slot straight to the head of the queue (``active`` never
        # dips and re-climbs), so the queue is non-empty only while every
        # slot is taken.
        waiting = self.waiting
        if waiting:
            self.admitted_total += 1
            self._start(waiting.popleft())
        else:
            self.active -= 1
        routing = self.routing
        if routing is not None:
            routing.on_complete(self.replica_id)
        ctx.on_done(committed)

    def fail_in_flight(self, reason: str) -> int:
        """Fail every live context back to its client (``committed=False``),
        in dispatch order, after a crash or an expired drain has fenced
        them.  ``reason`` goes to the abort-reason taxonomy, not to
        ``metrics.aborts``.  Returns the number failed."""
        live = self._live
        self._live = {}
        routing = self.routing
        replica_id = self.replica_id
        for ctx in live:
            if routing is not None:
                routing.on_complete(replica_id)
            ctx.on_done(False)
        failed = len(live)
        if failed and self.metrics is not None:
            self.metrics.record_failure(reason, failed)
        return failed

    # ------------------------------------------------------------------
    # Tracing (no-ops unless an ObservabilityHub armed ``ctx.trace``)
    # ------------------------------------------------------------------
    def _trace_lap(self, ctx: TransactionContext, stage: int) -> None:
        """Close the trace's current stage at ``now`` and emit its span.

        Unguarded by design: every call site checks ctx.trace/self.obs
        before entering, keeping this helper branch-free on the traced
        path -- which O2 proves interprocedurally.
        """
        trace = ctx.trace
        now = self.sim.now
        start = trace.lap(stage, now)
        self.obs.tracer.span(STAGE_NAMES[stage], "stage",
                             start, now - start,
                             self.replica_id, trace.txn_id,
                             args={"attempt": ctx.attempt})

    def _trace_finish(self, ctx: TransactionContext, committed: bool) -> None:
        """Record the finished transaction's histograms and summary span.

        Only transactions that reach ``_finish`` are recorded (crash- or
        drain-abandoned ones never do), so the per-stage histograms
        sum-reconcile with the end-to-end latency histogram: the stage laps
        telescope from ``submitted_at`` to the finish instant.
        """
        trace = ctx.trace
        now = self.sim.now
        total = now - ctx.submitted_at
        tracer = self.obs.tracer
        tracer.stages.record_txn(trace.stage_seconds, total)
        tracer.span("txn", "txn", ctx.submitted_at, total, self.replica_id,
                    trace.txn_id,
                    args={"type": ctx.txn_type.name, "committed": committed,
                          "attempts": ctx.attempt})

    # ------------------------------------------------------------------
    # Crash / restore (elasticity)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the replica: in-flight transactions are abandoned.

        The epoch bump fences every continuation already in the event queue,
        including the in-flight certification round trip; the admission
        slots and queue are reset so queued-but-unstarted work is discarded,
        and the certification batcher is reset (its queued contexts die with
        their admission slots).  The contexts stay in the live table, their
        snapshots still holding the truncation floor, until the cluster
        calls :meth:`fail_in_flight` in the same step.  Durable state
        (the applied-version cursor) survives, as it would on disk; the page
        cache is cleared by :meth:`recover`.  Idempotent while down.
        """
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        self.active = 0
        self.waiting.clear()
        self._cert_queue = []
        self._cert_inflight = False
        # The in-flight RPC batch dies with its admission slots; its timers
        # and late responses are fenced by the epoch.  Request ids stay
        # monotonic so post-restore round trips cannot look stale.
        self._rpc_batch = None

    def recover(self) -> int:
        """Restart the replica and bring it up to date from the certifier's log.

        Standard recovery (Section 3): the buffer pool is cleared (a restart
        loses the page cache), the filter is cleared (the replica rejoins as
        a full copy; the balancer may re-install filters afterwards), and
        every writeset committed since the applied version is re-applied
        through the normal path so its resource cost is charged.  Returns
        the number of writesets replayed.
        """
        self.engine.buffer_pool.clear()
        self.set_filter(None)
        # Entries below the certifier's retention horizon have been
        # truncated; that prefix is restored from another copy in the
        # cluster (the paper's alternative recovery source) and only the
        # retained suffix is replayed from the log.  Affects cold joiners
        # and replicas that crashed before a truncation; live replicas
        # always sit above the horizon because the truncation floor tracks
        # their applied versions.
        horizon = self.certifier.oldest_available_version - 1
        if self.applied_version < horizon:
            self._advance(horizon)
            # The skipped prefix was restored from another copy, not
            # delivered over the network; lift the consistency checker's
            # audit floor so it does not flag those versions as lost.
            if self.apply_ledger is not None and horizon > self.apply_ledger_floor:
                self.apply_ledger_floor = horizon
        entries = self.certifier.writesets_since(self.applied_version)
        if entries:
            self.apply_remote_writesets(entries)
        return len(entries)

    # ------------------------------------------------------------------
    # Update propagation
    # ------------------------------------------------------------------
    def apply_remote_writesets(self, entries: Sequence[CertifiedWriteSet]) -> None:
        """Apply a batch of committed writesets from the certifier.

        Writesets originating at this replica are skipped (their effects are
        already local); the rest are applied subject to the update filter
        (``filter_tables``, the single source of filtering truth, evaluated
        per item by the engine).  The buffer-pool effects,
        CPU time, disk service time and background-I/O accounting are all
        aggregated over the batch (per relation, by
        ``engine.apply_writesets_fast``) and charged once -- a pull that
        returns dozens of writesets used to pay per-entry resource
        bookkeeping, which showed up as a hot path on paper-scale runs.
        """
        engine = self.engine
        replica_id = self.replica_id
        ledger = self.apply_ledger
        to_apply = None
        applied_version = self.applied_version
        for entry in entries:
            version = entry.version
            if version <= applied_version:
                continue
            writeset = entry.writeset
            if writeset.origin_replica != replica_id:
                if ledger is not None:
                    # Consistency audit: count the delivery before filtering
                    # (the checker verifies exactly-once *delivery*; what
                    # the filter then drops is policy, not loss).
                    ledger[version] = ledger.get(version, 0) + 1
                if to_apply is None:
                    to_apply = [writeset]
                else:
                    to_apply.append(writeset)
            applied_version = version
        if to_apply is not None:
            cpu_seconds, read_bytes, write_bytes, applications, filtered = \
                engine.apply_writesets_fast(to_apply, self.filter_tables)
            if applications:
                self.writesets_applied += applications
            if filtered:
                self.writesets_filtered += filtered
            io_seconds = read_seconds(read_bytes, 0.0) + write_seconds(write_bytes)
            if cpu_seconds > 0:
                self.resources.cpu.add_background_work(cpu_seconds)
            if io_seconds > 0:
                self.resources.disk.add_background_work(io_seconds)
            if self.metrics is not None and (read_bytes > 0 or write_bytes > 0):
                self.metrics.record_background_io(
                    time=self.sim.now,
                    replica_id=replica_id,
                    read_bytes=read_bytes,
                    write_bytes=effective_write_bytes(write_bytes),
                )
        # The cursor is committed once per batch; versions inside a batch
        # ascend, so the final advance is equivalent to per-entry ones.
        self._advance(applied_version)

    def _advance(self, version: int) -> None:
        """Move the applied-version cursor forward to ``version`` (never back).

        Every advance re-arms this replica's entry in the certifier's
        lag-subscription index, which is how commit batches find lagging
        replicas without scanning the cluster.
        """
        if version > self.applied_version:
            self.applied_version = version
            self.certifier.subscriptions.advanced(self.replica_id, version)

    def pull_updates(self, trigger: str = "periodic") -> int:
        """Fetch and apply all writesets committed since our applied version.

        Returns the number of writesets fetched.  Called periodically (the
        prototype pulls every 500 ms when idle) and by the certifier's lag
        notifications (``trigger="notification"``, used by the telemetry
        pull-source breakdown).  A crashed or retired replica pulls nothing.
        """
        if not self.alive:
            return 0
        channel = self.channel
        if channel is not None and not channel.pull_allowed():
            # Partitioned or the exchange was lost; the periodic pull loop
            # is the retry, so nothing further to arrange.
            return 0
        entries = self.certifier.writesets_since(self.applied_version)
        if entries:
            self.apply_remote_writesets(entries)
        obs = self.obs
        if obs is not None:
            obs.record_pull(self.replica_id, trigger, len(entries), self.sim.now)
        return len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        return self.certifier.current_version - self.applied_version
