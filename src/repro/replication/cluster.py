"""The replicated cluster: replicas, certifier, load balancer and clients wired together.

:class:`ReplicatedCluster` is the simulated counterpart of the whole testbed
of Section 4.4: N replica machines (each a CPU, a disk and a database
engine with a bounded buffer pool), the replicated certifier, the load
balancer in front, the monitoring daemons feeding it utilisation data, and a
closed-loop client population.  It also implements the
:class:`~repro.core.balancer.ClusterView` protocol, i.e. it *is* the narrow
interface through which load-balancing policies observe the system.

A cluster with ``num_replicas=1`` and a round-robin balancer doubles as the
"Single" standalone database bar of Figures 3, 4 and 7.

The cluster also owns the replica lifecycle of Section 3 ("If a replica
crashes and later restarts, standard recovery is used ... the database can
be restored from other copies in the cluster or by the persistent log at
the certifier"), as online operations on a running simulation:

* **join** -- a new replica enters with a cold buffer pool and replays the
  certifier log through the normal application path
  (:meth:`~repro.replication.replica.Replica.recover`), so its warm-up
  cost is charged to the simulation;
* **crash** -- the replica leaves the balancer's view, its in-flight
  transactions fail back to their clients (who re-issue elsewhere), and
  continuations already in the event queue are fenced by its epoch;
* **restore** -- a crashed replica runs the same ``recover``, replaying
  exactly the writesets it missed, and rejoins with filters cleared;
* **leave** -- graceful drain: no new work is dispatched, in-flight work
  completes, then the replica retires; past a deadline the stragglers are
  failed the way a crash fails them.

Every change notifies the balancer, so policies that own a replica
assignment (MALB) reconcile at once, and appends a
:class:`MembershipEvent` to the cluster's audit trail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Set

from repro.core.balancer import LoadBalancer
from repro.core.routing import RoutingTable
from repro.net.channel import Network
from repro.replication.certifier import Certifier
from repro.replication.replica import (CompletionCallback, Replica,
                                      TransactionContext)

if TYPE_CHECKING:
    from repro.obs.hub import ObservabilityHub
from repro.sim.clients import ClientPopulation
from repro.sim.metrics import MetricsCollector
from repro.sim.monitor import ClusterMonitor
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.workloads.generator import WorkloadGenerator, WorkloadSchedule
from repro.workloads.spec import TransactionType, WorkloadSpec

#: Memory reserved for the OS, PostgreSQL processes, proxy and monitoring
#: daemons; subtracted from physical RAM before sizing buffer pools and
#: before bin packing (Section 4.4).
MEMORY_OVERHEAD_BYTES = mb(70)
#: Seconds between two update pulls of a replica (the prototype's 500 ms).
PROPAGATION_INTERVAL_S = 0.5
#: One-way certifier-to-proxy latency of a lag notification; the pull it
#: triggers is deferred by this much, so piggyback propagation is not free
#: relative to the periodic pull.
NOTIFICATION_LATENCY_S = 0.002
#: Seconds between two runs of the balancer's periodic work (re-allocation,
#: filter activation).
BALANCER_PERIOD_S = 5.0

#: Seconds between checks of whether a draining replica's in-flight work
#: has resolved.
DRAIN_POLL_INTERVAL_S = 0.25
#: How long a draining replica may hold up its retirement before its
#: stragglers are failed.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class ClusterConfig:
    """Configuration of one experiment's cluster."""

    num_replicas: int = 16
    replica_ram_bytes: int = mb(512)
    clients_per_replica: int = 10
    think_time_s: float = 0.5
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: How often the certifier log is truncated to the version every replica
    #: (live, draining or crashed-but-restorable) has already applied and
    #: every started transaction's snapshot has reached, so the log stops
    #: growing without bound on long runs.  0 disables truncation.
    log_truncation_interval_s: float = 30.0
    seed: int = 1
    #: Number of synchronous certifier backups (the paper runs a leader plus
    #: two).  0 keeps the single logical certifier; > 0 mirrors its log to
    #: that many backups so the fault injector can fail the leader over
    #: mid-run.
    certifier_backups: int = 0
    #: Unreliable-network model (:class:`repro.net.channel.Network`).
    #: ``False`` -- the default -- builds no channels at all: certification
    #: round trips and lag notifications take the direct loss-free schedule
    #: path, keeping every seeded golden bit-identical.  ``True`` routes them
    #: over per-replica channels, perfect until a fault injector schedules
    #: partitions, drops, duplication or jitter, and switches certification
    #: to at-least-once RPC.
    network: bool = False

    def __post_init__(self) -> None:
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.certifier_backups < 0:
            raise ValueError("certifier_backups cannot be negative")
        if self.log_truncation_interval_s < 0:
            raise ValueError("log_truncation_interval_s cannot be negative")
        if self.replica_ram_bytes <= MEMORY_OVERHEAD_BYTES:
            raise ValueError("replica RAM must exceed the fixed memory overhead")
        if self.clients_per_replica <= 0:
            raise ValueError("clients_per_replica must be positive")
        if self.think_time_s < 0:
            raise ValueError("think time must be non-negative")

    @property
    def buffer_bytes(self) -> int:
        """Memory actually available for database pages at one replica."""
        return self.replica_ram_bytes - MEMORY_OVERHEAD_BYTES

    @property
    def total_clients(self) -> int:
        return self.num_replicas * self.clients_per_replica


@dataclass
class MembershipEvent:
    """One membership change, for the audit trail."""

    time: float
    kind: str          # "join", "crash", "restore", "leave", "retired"
    replica_id: int
    detail: str = ""


@dataclass
class RunResult:
    """Everything an experiment needs from one simulated run."""

    policy: str
    config: ClusterConfig
    metrics: MetricsCollector
    groupings: Dict[str, List[str]] = field(default_factory=dict)
    replica_counts: Dict[str, int] = field(default_factory=dict)
    certifier_aborts: int = 0

    @property
    def throughput_tps(self) -> float:
        return self.metrics.throughput_tps()

    @property
    def response_time_s(self) -> float:
        return self.metrics.average_response_time()

    @property
    def read_kb_per_txn(self) -> float:
        return self.metrics.read_kb_per_transaction()

    @property
    def write_kb_per_txn(self) -> float:
        return self.metrics.write_kb_per_transaction()


class ClusterObserver(Protocol):
    """Anything wired into a cluster through :meth:`ReplicatedCluster.attach`
    (the observability hub, the dsan session, the consistency checker)."""

    def instrument_replica(self, replica: Replica) -> None:
        """Arm one replica; called for every replica, joiners included."""

    def instrument_cluster(self, cluster: "ReplicatedCluster") -> None:
        """Arm the cluster-wide state; called once, after the replicas."""


class _Notification:
    """A lag notification in flight from the certifier to one proxy.

    Cancel-aware: the notification only fires if its replica's entry is
    still in the pending set.  The entry disappears when the replica
    crashes (``_purge_replica_state``), when an unreliable channel drops the
    message (:meth:`drop`, invoked at the drop decision so a fresh
    notification can be sent instead of the dedup entry leaking forever),
    or when a duplicated delivery already consumed it.
    """

    __slots__ = ("pending", "replica")

    def __init__(self, pending: Set[int], replica: Replica) -> None:
        self.pending = pending
        self.replica = replica

    def __call__(self) -> None:
        replica_id = self.replica.replica_id
        if replica_id not in self.pending:
            return
        self.pending.discard(replica_id)
        self.replica.pull_updates(trigger="notification")

    def drop(self) -> None:
        """The channel lost this notification: release the dedup entry."""
        self.pending.discard(self.replica.replica_id)


class ReplicatedCluster:
    """Builds and runs one replicated-database configuration."""

    def __init__(self, workload: WorkloadSpec, balancer: LoadBalancer,
                 config: Optional[ClusterConfig] = None,
                 schedule: Optional[WorkloadSchedule] = None,
                 mix: Optional[str] = None) -> None:
        self._workload = workload
        self.balancer = balancer
        self.config = config or ClusterConfig()
        if schedule is None:
            if mix is None:
                raise ValueError("provide either a mix name or a workload schedule")
            schedule = WorkloadSchedule.constant(mix)
        self.schedule = schedule

        self.sim = Simulator()
        self._catalog = Catalog(schema=workload.schema)
        self._planner = QueryPlanner(catalog=self._catalog)
        self.certifier = Certifier(backups=self.config.certifier_backups)
        #: event-maintained routing state (outstanding counters, live-replica
        #: cache, the monitor's published load samples, effective loads)
        #: shared with the balancer through the view.
        self.routing = RoutingTable()
        self.monitor = ClusterMonitor(self.sim, self.routing)
        self.metrics = MetricsCollector(warmup_seconds=0.0)
        #: Observability hub (repro.obs.ObservabilityHub) or None.  Set by
        #: the hub when attached; the cold-path subsystems (membership,
        #: faults, autoscaler) publish events through it when present.
        self.observability: Optional["ObservabilityHub"] = None
        #: Everything wired in through :meth:`attach`, in attach order.
        #: Must exist before _build_replicas so joiners are instrumented.
        self.observers: List[ClusterObserver] = []
        #: The unreliable-network model, or None for the direct schedule path.
        self.network = Network(self.sim) if self.config.network else None
        #: Replicas in service: dispatchable, monitored, pulling updates.
        self.replicas: Dict[int, Replica] = {}
        #: Every replica this cluster built, by id: in service, draining,
        #: crashed or retired.  Ids are never reused.
        self.built_replicas: Dict[int, Replica] = {}
        #: Ids of built replicas that left for good; they never return.
        self.retired: Set[int] = set()
        #: The membership audit trail, in order.
        self.membership_events: List[MembershipEvent] = []
        self._pulls_scheduled: Set[int] = set()
        self._notify_pending: Set[int] = set()
        self._started = False
        self._build_replicas()
        self.generator = WorkloadGenerator(spec=self._workload, schedule=self.schedule,
                                           seed=self.config.seed)
        self.clients = ClientPopulation(
            sim=self.sim,
            clients=self.config.total_clients,
            think_time_s=self.config.think_time_s,
            seed=self.config.seed,
            generator=self.generator,
            submit=self._submit,
        )
        self.balancer.attach(self)

    def attach(self, observer: ClusterObserver) -> None:
        """Wire ``observer`` in: every replica, then the cluster; replicas
        built later (elastic joiners) are instrumented as they are made."""
        self.observers.append(observer)
        for replica in self.replicas.values():
            observer.instrument_replica(replica)
        observer.instrument_cluster(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_replicas(self) -> None:
        for _ in range(self.config.num_replicas):
            self._activate_replica(self._make_replica())

    def _make_replica(self) -> Replica:
        """Build and register the next replica machine (engine + resources
        + proxy), not yet in service."""
        replica_id = len(self.built_replicas)
        buffer_pool = BufferPool(capacity_bytes=self.config.buffer_bytes)
        engine = DatabaseEngine(
            catalog=self._catalog,
            buffer_pool=buffer_pool,
            config=self.config.engine,
            rng=random.Random(self.config.seed * 1000 + replica_id),
        )
        resources = ReplicaResources.create(self.sim, replica_id)
        network = self.network
        replica = Replica(
            replica_id=replica_id,
            sim=self.sim,
            engine=engine,
            resources=resources,
            certifier=self.certifier,
            channel=network.link(replica_id) if network is not None else None,
        )
        replica.metrics = self.metrics
        replica.routing = self.routing
        replica.on_local_commit = self._on_local_commit
        for observer in self.observers:
            observer.instrument_replica(replica)
        self.built_replicas[replica_id] = replica
        return replica

    def _activate_replica(self, replica: Replica) -> None:
        """Put a replica in service: dispatchable, monitored, pulling updates."""
        replica_id = replica.replica_id
        self.replicas[replica_id] = replica
        self.routing.add_replica(replica_id)
        self.monitor.register(replica_id, replica.resources)
        # Register the propagation cursor with the certifier's lag index so
        # commit batches can find this replica when it falls behind; every
        # subsequent Replica._advance re-arms the entry.
        self.certifier.subscriptions.subscribe(replica_id,
                                               replica.applied_version)
        if self._started:
            self._schedule_pulls(replica)

    def _deactivate_replica(self, replica_id: int, action: str) -> Replica:
        """Take a replica out of service (crash or graceful leave).

        It disappears from the balancer's view, the monitor and the
        certifier's lag-subscription index; outstanding counters are kept so
        draining and crash-failing stay accountable.
        """
        if replica_id not in self.replicas:
            raise KeyError("replica %r is not in service" % (replica_id,))
        if len(self.replicas) <= 1:
            raise RuntimeError("refusing to %s the last replica in service" % action)
        replica = self.replicas.pop(replica_id)
        self.routing.remove_replica(replica_id)
        self.monitor.unregister(replica_id)
        self.certifier.subscriptions.unsubscribe(replica_id)
        return replica

    def _schedule_pulls(self, replica: Replica) -> None:
        """Start the replica's periodic update pull, once per replica id.

        The loop stops itself when the replica leaves service (crash,
        drain or retirement), so dead replicas do not keep firing no-op
        events; re-activation schedules a fresh loop.
        """
        replica_id = replica.replica_id
        if replica_id in self._pulls_scheduled:
            return
        self._pulls_scheduled.add(replica_id)

        def tick() -> None:
            if self.replicas.get(replica_id) is not replica:
                self._pulls_scheduled.discard(replica_id)
                return
            replica.pull_updates()
            self.sim.schedule(PROPAGATION_INTERVAL_S, tick)

        self.sim.schedule(PROPAGATION_INTERVAL_S, tick)

    def _purge_replica_state(self, replica_id: int) -> None:
        """Drop the last traces of a replica that has fully left.

        Deactivation intentionally keeps the routing outstanding counter (so
        draining and crash-failing stay accountable); once the replica's
        live table is resolved, this clears the counter and any cached
        effective load, so no stale state can influence later routing
        decisions or linger in snapshots.
        """
        self.routing.purge_replica(replica_id)
        # Release any lag-notification dedup entry so a restored replica can
        # be notified again; the in-flight _Notification (if any) is
        # cancel-aware and fizzles when it lands.  The certifier's RPC dedup
        # cache is deliberately NOT purged: forgetting served request ids
        # would let a delayed duplicate request be re-certified.
        self._notify_pending.discard(replica_id)

    def notify_membership_changed(self) -> None:
        """Tell the balancer the replica set changed and re-push filters.

        Pending demand counters are drained first so a policy re-sizing its
        allocation to the new membership sees the mix up to this instant,
        exactly as per-dispatch accounting would have.
        """
        self._drain_mix_counts()
        self.balancer.on_membership_change()
        self._install_filters()

    # ------------------------------------------------------------------
    # Replica lifecycle: join, crash, restore, graceful leave
    # ------------------------------------------------------------------
    def replica_ids(self) -> List[int]:
        """The replicas in service, ascending (the fault injector's pick
        list)."""
        return list(self.routing.replica_ids())

    def returnable_replicas(self) -> List[Replica]:
        """Built replicas that are not retired: in service, draining, or
        crashed but restorable.  All of them may still need the certifier
        log, so all of them hold its truncation floor down."""
        retired = self.retired
        return [replica for replica_id, replica in self.built_replicas.items()
                if replica_id not in retired]

    def is_crashed(self, replica_id: int) -> bool:
        """Whether ``replica_id`` crashed and may still be restored."""
        replica = self.built_replicas.get(replica_id)
        return (replica is not None and not replica.alive
                and replica_id not in self.retired)

    def add_replica(self) -> int:
        """Grow the cluster by one replica; returns its id.

        The newcomer starts with an empty buffer pool and catches up by
        replaying every writeset in the certifier's log; the replay is
        charged as background CPU and disk work, so a join is never free.
        """
        replica = self._make_replica()
        replayed = self._recover_into_service(replica)
        self._log_event("join", replica.replica_id,
                        "cold join, replayed %d writesets" % replayed)
        return replica.replica_id

    def crash_replica(self, replica_id: int) -> Replica:
        """Fail a replica abruptly.

        Its in-flight transactions fail back to their clients, which
        re-issue on the surviving replicas; the balancer is reconciled
        before those retries arrive so none of them can land on the corpse.
        """
        replica = self._deactivate_replica(replica_id, "crash")
        replica.crash()
        self.notify_membership_changed()
        failed = replica.fail_in_flight("crash-in-flight")
        self._purge_replica_state(replica_id)
        self._log_event("crash", replica_id,
                        "failed %d in-flight transactions" % failed)
        return replica

    def restore_replica(self, replica_id: int) -> int:
        """Restart a crashed replica and bring it back into service.

        Standard recovery (Section 3): cold cache, filters cleared, and
        exactly the writesets committed since the replica's applied version
        replayed from the certifier's log.
        Returns the number of writesets replayed.
        """
        if not self.is_crashed(replica_id):
            raise KeyError("replica %r is not crashed" % (replica_id,))
        replayed = self._recover_into_service(self.built_replicas[replica_id])
        self._log_event("restore", replica_id, "replayed %d writesets" % replayed)
        return replayed

    def _recover_into_service(self, replica: Replica) -> int:
        """The one join and restore path: replay the log, then serve."""
        replayed = replica.recover()
        replica.alive = True
        self._activate_replica(replica)
        self.notify_membership_changed()
        return replayed

    def remove_replica(self, replica_id: int) -> None:
        """Shrink the cluster by draining one replica out of it.

        New dispatches stop immediately; the replica's in-flight
        transactions may finish before it retires.  Past the drain deadline
        any stragglers are failed the way a crash would fail them.
        """
        replica = self._deactivate_replica(replica_id, "remove")
        self.notify_membership_changed()
        # The routing table keeps the departed replica's outstanding counter
        # alive until its last in-flight transaction resolves, so draining
        # stays exactly accountable after the replica left the live set.
        outstanding = self.routing.outstanding
        if outstanding.get(replica_id, 0) == 0:
            self._retire(replica, "immediate")
            return
        self._log_event("leave", replica_id, "draining %d in-flight transactions"
                        % outstanding[replica_id])
        deadline = self.sim.now + DRAIN_TIMEOUT_S

        def poll() -> None:
            if outstanding.get(replica_id, 0) == 0:
                self._retire(replica, "drained")
            elif self.sim.now >= deadline:
                replica.crash()
                failed = replica.fail_in_flight("drain-straggler")
                self._retire(replica, "drain deadline, failed %d stragglers" % failed)
            else:
                self.sim.schedule(DRAIN_POLL_INTERVAL_S, poll)

        self.sim.schedule(DRAIN_POLL_INTERVAL_S, poll)

    def _retire(self, replica: Replica, detail: str) -> None:
        replica.alive = False
        self.retired.add(replica.replica_id)
        # A retired replica never returns; erase its routing counter (its
        # live table is already resolved).
        self._purge_replica_state(replica.replica_id)
        self._log_event("retired", replica.replica_id, detail)

    def _log_event(self, kind: str, replica_id: int, detail: str) -> None:
        now = self.sim.now
        self.membership_events.append(MembershipEvent(
            time=now, kind=kind, replica_id=replica_id, detail=detail))
        obs = self.observability
        if obs is not None:
            obs.membership_event(now, kind, replica_id, detail)

    # ------------------------------------------------------------------
    # ClusterView protocol (what the load balancer may see)
    # ------------------------------------------------------------------
    def replica_memory_bytes(self) -> int:
        return self.config.buffer_bytes

    def catalog(self) -> Catalog:
        return self._catalog

    def planner(self) -> QueryPlanner:
        return self._planner

    def workload(self) -> WorkloadSpec:
        return self._workload

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------
    def _submit(self, txn_type: TransactionType, client_id: int,
                on_complete: CompletionCallback) -> None:
        """Route one transaction; the replica's context is its only state."""
        replica_id = self.balancer.dispatch(txn_type)
        replica = self.replicas.get(replica_id)
        if replica is None:
            raise KeyError("balancer chose unknown replica %r" % (replica_id,))
        self.routing.on_dispatch(replica_id)
        replica.submit(txn_type, self.sim.now, on_complete)

    def _on_local_commit(self, origin: Replica) -> None:
        """Piggyback propagation: the committing replica is already up to date;
        other replicas receive the writeset at their next pull (within the
        propagation interval), mirroring the prototype's 500 ms pull plus
        lag-notification scheme.  A lag notification is a certifier-to-proxy
        message, so the pull it triggers pays the one-way notification
        latency instead of happening instantaneously at commit time --
        a zero ``NOTIFICATION_LATENCY_S`` still goes through the event queue
        (a zero-delay schedule), never through a synchronous pull inside the
        origin's commit processing.  At most one notification per replica is
        in flight: further commits before it lands would only tell the proxy
        what it is already about to learn.

        The replicas to notify come from the certifier's lag-subscription
        index: each replica's cursor is bucketed by the version at which it
        crosses the notification threshold, so this costs O(notified), not
        O(replicas), per certification batch."""
        certifier = self.certifier
        crossed = certifier.subscriptions.crossed(certifier.current_version)
        if not crossed:
            return
        origin_id = origin.replica_id
        pending = self._notify_pending
        replicas = self.replicas
        stats = certifier.stats
        sim = self.sim
        for replica_id in crossed:
            if replica_id == origin_id or replica_id in pending:
                # The origin applies this batch's piggyback right after the
                # hook returns, and an in-flight notification's pull always
                # catches the replica up: either way the cursor advance
                # re-arms the subscription at the fresh lag target.
                continue
            replica = replicas.get(replica_id)
            if replica is None:
                continue
            stats.notifications_sent += 1
            pending.add(replica_id)
            # pull_updates checks liveness when the message lands, so a
            # replica that crashes in between simply drops it.
            note = _Notification(pending, replica)
            channel = replica.channel
            if channel is None:
                sim.schedule(NOTIFICATION_LATENCY_S, note)
            else:
                # Notifications ride the same unreliable link as the RPCs;
                # a lost one releases its dedup entry at the drop decision
                # (note.drop), and the periodic pull backstops it anyway.
                channel.deliver(NOTIFICATION_LATENCY_S, note, on_drop=note.drop)

    def _install_filters(self) -> None:
        """Push the balancer's current update-filtering decision to the replicas."""
        for replica_id, replica in self.replicas.items():
            replica.set_filter(self.balancer.filter_tables(replica_id))

    def _drain_mix_counts(self) -> None:
        """Stream the generator's issue counters to the balancer in batch.

        The generator counts every issued transaction type with an integer
        bump; this folds the accumulated deltas into the balancer's demand
        estimate.  Called before every balancer tick and membership change,
        so a policy reading its estimate at those points sees exactly what
        per-dispatch accounting would have shown it.
        """
        counts = self.generator.drain_type_counts()
        if counts:
            self.balancer.ingest_mix_counts(counts)

    # ------------------------------------------------------------------
    # Certifier-log truncation
    # ------------------------------------------------------------------
    def certifier_truncation_floor(self) -> int:
        """Oldest version any current or returning replica could still need.

        The floor is the minimum over (a) the applied version of every
        replica that may yet pull or replay from the log -- in service,
        draining, or crashed but restorable -- and (b) the snapshot of every
        started transaction in those replicas' live tables, because
        certification compares a writeset against everything committed
        since its snapshot.  A context still ADMITTED waits for an admission
        slot and has begun no snapshot.  A crash leaves its contexts in the
        live table only until ``fail_in_flight`` empties it in the same
        call, so no floor is taken in between.  Retired replicas never
        return and are excluded, so membership churn is respected by
        construction.
        """
        replicas = self.returnable_replicas()
        if not replicas:
            return 0
        admitted = TransactionContext.ADMITTED
        floor = min(replica.applied_version for replica in replicas)
        for replica in replicas:
            for ctx in replica._live:
                if ctx.state != admitted and ctx.snapshot < floor:
                    floor = ctx.snapshot
        return floor

    def truncate_certifier_log(self) -> int:
        """Drop certifier-log entries below the truncation floor.

        Called periodically (``log_truncation_interval_s``); safe to call at
        any time.  Returns the number of entries dropped.
        """
        floor = self.certifier_truncation_floor()
        if floor <= 0:
            return 0
        return self.certifier.truncate(floor)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _warm_replicas(self) -> None:
        """Pre-warm replica buffer pools to the steady state the policy targets.

        Memory-aware policies warm each replica with the relations of its
        transaction groups; baselines (which have no affinity) warm every
        replica with a proportional slice of the whole database.  This makes
        short simulated runs measure steady-state behaviour instead of the
        cold-start transient; the dynamic-reconfiguration experiment still
        pays realistic re-warming costs whenever the allocation changes.
        """
        for replica_id, replica in self.replicas.items():
            relations = self.balancer.preferred_relations(replica_id)
            if relations is None:
                relations = {r.name: r.size_bytes for r in self._catalog.relations()}
            total = float(sum(relations.values()))
            if total <= 0:
                continue
            capacity = float(replica.engine.buffer_pool.capacity_bytes)
            fraction = min(1.0, capacity / total)
            for name, size in relations.items():
                replica.engine.buffer_pool.warm(name, size * fraction)

    def start(self) -> None:
        """Schedule all periodic machinery and start the clients (idempotent)."""
        if self._started:
            return
        self._started = True
        # Let the balancer see a sample of the incoming mix so it can size
        # its allocation before the measurement starts, then warm the caches
        # to the steady state that allocation implies.
        preview = WorkloadGenerator(spec=self._workload, schedule=self.schedule,
                                    seed=self.config.seed + 7919)
        preview.sample_types(0.0, 2000)
        self.balancer.observe_mix(preview.drain_type_counts())
        self._warm_replicas()
        self.monitor.start()
        self.clients.start()
        # Update propagation: every replica pulls every
        # ``PROPAGATION_INTERVAL_S``.
        for replica in self.replicas.values():
            self._schedule_pulls(replica)
        # Load-balancer periodic work (re-allocation, filter activation),
        # fed the demand counters accumulated since the previous tick.
        def balancer_tick() -> None:
            self._drain_mix_counts()
            self.balancer.periodic(self.sim.now)
            self._install_filters()

        self.sim.schedule_periodic(BALANCER_PERIOD_S, balancer_tick)
        # Certifier-log truncation: without it the log retains every
        # writeset ever certified, a memory leak on long runs.
        if self.config.log_truncation_interval_s > 0:
            self.sim.schedule_periodic(self.config.log_truncation_interval_s,
                                       lambda: self.truncate_certifier_log())

    def run(self, duration_s: float, warmup_s: float = 0.0) -> RunResult:
        """Run the simulation for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if warmup_s < 0 or warmup_s >= duration_s:
            raise ValueError("warmup must be shorter than the run")
        self.metrics.warmup_seconds = warmup_s
        self.start()
        self.sim.run_until(duration_s)
        return self.collect_result()

    def collect_result(self) -> RunResult:
        return RunResult(
            policy=self.balancer.name,
            config=self.config,
            metrics=self.metrics,
            groupings=self.balancer.groupings(),
            replica_counts=self.balancer.replica_counts(),
            certifier_aborts=self.certifier.stats.aborts,
        )
