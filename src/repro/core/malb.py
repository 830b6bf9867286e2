"""The memory-aware load balancer (MALB).

This class ties together the pieces the paper describes in Sections 2 and 3:

1. at start-up it obtains the execution plan of every registered transaction
   type, estimates working sets from plans and catalog metadata
   (:mod:`repro.core.estimator`),
2. packs the types into transaction groups that fit replica memory using one
   of the three methods MALB-S / MALB-SC / MALB-SCAP
   (:mod:`repro.core.grouping`),
3. allocates replicas to groups and keeps re-allocating from the smoothed
   CPU/disk utilisation reports (:mod:`repro.core.allocation`),
4. dispatches each incoming transaction to the least-loaded replica of its
   type's group, and
5. optionally, once the configuration is stable, enables update filtering
   (:mod:`repro.core.update_filtering`) and freezes the allocation, as the
   prototype does (Section 4.2.3).

Groups are formed once, at attach time.  The paper re-groups when the
working sets change (Section 2.1), but relation sizes are fixed for a run
here (see :mod:`repro.storage.catalog`), so the estimates never move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.allocation import ReplicaAllocator
from repro.core.balancer import LoadBalancer
from repro.core.estimator import WorkingSetEstimator
from repro.core.grouping import (
    GroupingMethod,
    TransactionGroup,
    build_groups,
    group_of_type,
)
from repro.core.update_filtering import FilterPlan, compute_filter_plan
from repro.core.working_set import WorkingSetEstimate
from repro.workloads.spec import TransactionType


class MemoryAwareLoadBalancer(LoadBalancer):
    """MALB: groups transaction types by working set and allocates replicas.

    Args:
        method: which grouping method to use (MALB-S, MALB-SC, MALB-SCAP).
        update_filtering: enable the update-filtering optimisation.  Following
            the prototype, filtering is activated only after the allocation
            has been stable for ``FILTERING_STABILIZATION_S`` seconds, and
            dynamic re-allocation is then frozen.
        enable_merging: run the allocator's split/merge/expand/contract step
            once the demand targets are met (the Section 5.3 ablation
            disables this).
        static_allocation: size the allocation once, to the mix observed at
            configuration time, and never adapt it.
    """

    #: demand-estimate decay applied once per rebalance interval, so the
    #: allocation tracks mix changes (Figure 6) within a few intervals.
    DEMAND_DECAY = 0.75
    #: how often, in seconds, the allocation is re-sized.
    REBALANCE_INTERVAL_S = 10.0
    #: a periodic re-size moves at most this many replicas ...
    REBALANCE_MAX_MOVES = 2
    #: ... and only once some group is this many replicas from its target.
    REBALANCE_MIN_DEVIATION = 2
    #: how long, in seconds, the allocation must be stable before update
    #: filtering activates.
    FILTERING_STABILIZATION_S = 60.0

    def __init__(self, method: GroupingMethod = GroupingMethod.MALB_SC,
                 update_filtering: bool = False,
                 enable_merging: bool = True,
                 static_allocation: bool = False) -> None:
        super().__init__()
        self.method = method
        self.update_filtering = update_filtering
        self.enable_merging = enable_merging
        self.static_allocation = static_allocation
        self.name = method.value + ("+UF" if update_filtering else "")

        self.estimates: Dict[str, WorkingSetEstimate] = {}
        self.groups: List[TransactionGroup] = []
        self.group_by_type: Dict[str, str] = {}
        self.allocator: Optional[ReplicaAllocator] = None
        self.filter_plan: Optional[FilterPlan] = None
        self._last_rebalance: float = 0.0
        self._filtering_active_since: Optional[float] = None
        self._observed_counts: Dict[str, float] = {}
        self._last_move_time: float = 0.0
        self._now_hint: float = 0.0
        # type name -> candidate replica ids, rebuilt only when the allocator
        # assignment (or cluster membership) changes; the common dispatch is
        # a version check plus an argmin over the cached candidates.
        self._type_candidates: Dict[str, Tuple[int, ...]] = {}
        self._cached_allocator: Optional[ReplicaAllocator] = None
        self._cached_allocator_version: int = -1
        self._cached_routing_version: int = -1

    # ------------------------------------------------------------------
    # Start-up: estimate, group, allocate
    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        view = self._require_view()
        estimator = WorkingSetEstimator(catalog=view.catalog(), planner=view.planner())
        self.estimates = estimator.estimate_all(view.workload().types)
        memory = view.replica_memory_bytes()
        self.groups = build_groups(self.estimates, memory, method=self.method)
        self.group_by_type = group_of_type(self.groups)
        self.allocator = ReplicaAllocator(groups=self.groups,
                                          replica_ids=self._require_routing().replica_ids())
        if self.static_allocation:
            self.allocator.freeze()

    # ------------------------------------------------------------------
    # Demand tracking and demand-proportional replica targets
    # ------------------------------------------------------------------
    def observe_mix(self, type_counts: Dict[str, int]) -> None:
        """Seed the demand estimate and size the allocation accordingly.

        The cluster feeds the balancer a sample of requested transaction
        types before the run starts (and keeps streaming the issued-type
        counters to :meth:`ingest_mix_counts` while it runs).  Replica
        targets are proportional to each group's observed demand weighted by
        a per-type cost proxy, which is how the allocation ends up looking
        like the paper's Table 2 (the busiest groups hold most of the
        cluster).
        """
        for name, count in type_counts.items():
            self._observed_counts[name] = self._observed_counts.get(name, 0.0) + float(count)
        if self.allocator is not None:
            # A static configuration is sized here too, to the mix observed
            # at configuration time, and then never adapted again.
            self._apply_demand_targets(max_moves=None)

    def ingest_mix_counts(self, type_counts: Dict[str, int]) -> None:
        """Fold streamed issue counters into the demand estimate.

        Called by the cluster with the types issued since the last drain
        (before every periodic tick and membership change), replacing the
        per-transaction dict update the dispatch path used to pay.  Unlike
        :meth:`observe_mix` this never re-sizes the allocation: the updated
        estimate is acted on at the next rebalance point, exactly when the
        per-dispatch accumulation was acted on.
        """
        counts = self._observed_counts
        for name, count in type_counts.items():
            counts[name] = counts.get(name, 0.0) + count

    def _type_cost_proxy(self, type_name: str) -> float:
        """Relative cost of one execution (CPU plus a charge per relation read)."""
        spec = self._require_view().workload()
        txn_type = spec.types.get(type_name)
        if txn_type is None:
            return 10.0
        cost = txn_type.cpu_ms + 3.0 * len(txn_type.reads)
        if txn_type.is_update:
            cost += 4.0
        return cost

    def _group_demand_weights(self) -> Dict[str, float]:
        weights: Dict[str, float] = {}
        for group in self.groups:
            weight = 0.0
            for type_name in group.type_names:
                weight += self._observed_counts.get(type_name, 0.0) * self._type_cost_proxy(type_name)
            weights[group.group_id] = weight
        return weights

    def _demand_targets(self) -> Dict[str, int]:
        """Replica counts proportional to demand, one replica minimum each."""
        allocator = self._require_allocator()
        replica_total = len(allocator.replica_ids)
        weights = self._group_demand_weights()
        total = sum(weights.values())
        group_ids = [g.group_id for g in self.groups]
        if total <= 0 or replica_total < len(group_ids):
            return allocator.replica_counts()
        raw = {gid: replica_total * weights[gid] / total for gid in group_ids}
        targets = {gid: 1 for gid in group_ids}
        for _ in range(replica_total - len(group_ids)):
            gid = max(group_ids, key=lambda g: raw[g] - targets[g])
            targets[gid] += 1
        return targets

    def _apply_demand_targets(self, max_moves: Optional[int]) -> int:
        """Move replicas toward the demand-proportional targets.

        Returns the number of replicas moved.  ``None`` applies the full
        target (initial sizing and membership changes).  A bounded call
        (``max_moves``, the periodic re-size) limits how much the
        allocation changes per rebalance interval, so the system is not
        destabilised by large simultaneous moves, and moves nothing while
        every group is fewer than ``REBALANCE_MIN_DEVIATION`` replicas from
        its target, leaving fine-tuning to the utilisation-based allocator.
        """
        outstanding = self._require_routing().outstanding
        allocator = self._require_allocator()
        targets = self._demand_targets()
        if max_moves is not None:
            counts_now = allocator.replica_counts()
            worst = max(abs(counts_now.get(gid, 0) - targets.get(gid, 1))
                        for gid in targets) if targets else 0
            if worst < self.REBALANCE_MIN_DEVIATION:
                return 0
        moves = 0
        budget = max_moves if max_moves is not None else len(allocator.replica_ids)
        while moves < budget:
            counts = allocator.replica_counts()
            over = [gid for gid in counts if counts[gid] > targets.get(gid, 1)]
            under = [gid for gid in counts if counts[gid] < targets.get(gid, 1)]
            if not over or not under:
                break
            donor = max(over, key=lambda gid: counts[gid] - targets.get(gid, 1))
            receiver = max(under, key=lambda gid: targets.get(gid, 1) - counts[gid])
            candidates = [
                rid for rid in allocator.replicas_of(donor)
                if len(allocator.groups_of_replica(rid)) == 1
            ]
            if not candidates:
                break
            replica = min(candidates, key=lambda rid: (outstanding[rid], rid))
            allocator.assignment[donor].remove(replica)
            allocator.assignment[receiver].append(replica)
            allocator.validate()
            moves += 1
        if moves:
            self._last_move_time = self._now_hint
        return moves

    # ------------------------------------------------------------------
    # Membership changes (elasticity)
    # ------------------------------------------------------------------
    def on_membership_change(self) -> None:
        """Reconcile the allocation with the cluster's live replica set.

        Replicas that joined are admitted to the allocator and the
        allocation is re-sized to demand; replicas that crashed or left are
        retired (their groups fall back to sharing surviving machines).  If
        update filtering is active, the filter plan is recomputed for the
        new assignment so the ``MIN_COPIES`` availability floor is never
        violated by churn.
        """
        if self.allocator is None:
            return
        allocator = self.allocator
        current = set(self._require_routing().replica_ids())
        known = set(allocator.replica_ids)
        if current == known:
            return
        for rid in sorted(known - current):
            allocator.remove_replica(rid)
        for rid in sorted(current - known):
            allocator.add_replica(rid)
        if not self.static_allocation:
            self._apply_demand_targets(max_moves=None)
        if self.filter_plan is not None:
            self._enable_filtering()
        self._last_move_time = self._now_hint

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def dispatch(self, txn_type: TransactionType) -> int:
        """O(candidates-in-group) dispatch over maintained state.

        The type -> candidate-replicas table is rebuilt only when the
        allocator's assignment version (bumped on every re-allocation and
        membership change) or the routing table's membership version moved;
        the common case is a version check, a dict lookup and the argmin
        over the routing table's outstanding counters.
        """
        routing = self.routing
        allocator = self.allocator
        if (allocator is None or routing is None
                or allocator is not self._cached_allocator
                or allocator.version != self._cached_allocator_version
                or routing.version != self._cached_routing_version):
            self._rebuild_candidate_cache()
            routing = self.routing
        candidates = self._type_candidates.get(txn_type.name)
        if candidates is None:
            # Unknown type (not registered when groups were formed): fall
            # back to least connections over the whole cluster.
            candidates = routing.replica_ids()
        # RoutingTable.least_loaded, inlined (same argmin, same lowest-id
        # tie-break): this is the innermost loop of every dispatch.
        counts = routing.outstanding
        remaining = iter(candidates)
        for best in remaining:
            break
        else:
            raise ValueError("least_loaded needs at least one candidate")
        best_outstanding = counts[best]
        for rid in remaining:
            outstanding = counts[rid]
            if outstanding <= best_outstanding:
                if outstanding < best_outstanding or rid < best:
                    best = rid
                    best_outstanding = outstanding
        return best

    def _rebuild_candidate_cache(self) -> None:
        """Re-derive the type -> candidate-replicas routing from the allocator."""
        self._require_view()
        routing = self._require_routing()
        allocator = self._require_allocator()
        assignment = allocator.assignment
        table: Dict[str, Tuple[int, ...]] = {}
        for type_name, group_id in self.group_by_type.items():
            candidates: Sequence[int] = assignment.get(group_id, ())
            # A group can momentarily have no replicas only through direct
            # allocator manipulation (validate() forbids it otherwise); fall
            # back to the whole cluster, as the uncached path always did.
            table[type_name] = tuple(candidates) if candidates else routing.replica_ids()
        self._type_candidates = table
        self._cached_allocator = allocator
        self._cached_allocator_version = allocator.version
        self._cached_routing_version = routing.version

    # ------------------------------------------------------------------
    # Periodic work: re-allocation, filtering activation
    # ------------------------------------------------------------------
    def periodic(self, now: float) -> None:
        allocator = self._require_allocator()
        self._now_hint = now
        if now - self._last_rebalance >= self.REBALANCE_INTERVAL_S:
            self._last_rebalance = now
            if not self.static_allocation and not allocator.frozen:
                # Age the demand estimate so the allocation follows mix changes.
                for name in list(self._observed_counts):
                    self._observed_counts[name] *= self.DEMAND_DECAY
                moved = self._apply_demand_targets(self.REBALANCE_MAX_MOVES)
                if moved == 0 and self.enable_merging:
                    # Demand targets are satisfied; let the utilisation-based
                    # allocator merge under-utilised singleton groups, undo
                    # a merge whose shared replica became the hot spot, or
                    # spill an overloaded group onto an idle machine when no
                    # exclusive donor exists (elastic clusters with fewer
                    # replicas than groups).
                    #
                    # Deliberately NOT counted as instability for the
                    # update-filtering gate: these are bounded local
                    # utilisation tweaks, and under steady paper-scale load
                    # one fires almost every period -- counting them kept
                    # pushing _last_move_time forward, so filtering never
                    # activated and MALB-SC+UF silently degenerated to
                    # MALB-SC (Figure 7's mechanism).  _enable_filtering
                    # recomputes the plan from the assignment as it stands
                    # and freezes it, so a just-merged allocation is a valid
                    # starting point.
                    allocator.rebalance(self._effective_loads())

        if self.update_filtering and self.filter_plan is None:
            if self._filtering_active_since is None:
                self._filtering_active_since = now
            elif (now - self._filtering_active_since >= self.FILTERING_STABILIZATION_S
                  and now - self._last_move_time >= 2 * self.REBALANCE_INTERVAL_S):
                self._enable_filtering()

    def _effective_loads(self):
        """Per-replica smoothed utilisation augmented with queueing pressure.

        Raw utilisation saturates at 100%, so once several groups queue it no
        longer distinguishes an overloaded group from a merely busy one; the
        routing table folds the outstanding-connection count (which the
        balancer sees anyway, Section 4.3) into the score it maintains from
        the dispatch/complete/monitor events, so reading it here never
        re-samples.  This is an implementation refinement over the paper's
        pure-utilisation load signal; the ablation benches can disable it by
        freezing allocation.
        """
        routing = self._require_routing()
        return {rid: routing.effective_load(rid) for rid in routing.replica_ids()}

    def _enable_filtering(self) -> None:
        """Install the filter plan and freeze the allocation (Section 4.2.3)."""
        view = self._require_view()
        allocator = self._require_allocator()
        self.filter_plan = compute_filter_plan(
            groups=self.groups,
            assignment=allocator.assignment,
            estimates=self.estimates,
            catalog=view.catalog(),
        )
        allocator.freeze()

    def filter_tables(self, replica_id: int) -> Optional[Set[str]]:
        if self.filter_plan is None:
            return None
        return self.filter_plan.tables_for(replica_id)

    def preferred_relations(self, replica_id: int):
        """Union of the relation maps of the groups assigned to a replica.

        Lets the cluster pre-warm each replica with the data its transaction
        groups will actually use, so measurements reflect the steady state
        the allocator converges to.
        """
        allocator = self.allocator
        if allocator is None:
            return None
        relations: Dict[str, int] = {}
        for group_id in allocator.groups_of_replica(replica_id):
            group = allocator.groups[group_id]
            for name, size in group.relation_bytes.items():
                relations[name] = max(relations.get(name, 0), int(size))
        return relations or None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _require_allocator(self) -> ReplicaAllocator:
        if self.allocator is None:
            raise RuntimeError("MALB used before attach()")
        return self.allocator

    def groupings(self) -> Dict[str, List[str]]:
        """Group id -> member transaction types (Tables 2 and 4)."""
        return {group.group_id: sorted(group.type_names) for group in self.groups}

    def replica_counts(self) -> Dict[str, int]:
        """Group id -> number of replicas currently allocated."""
        return self._require_allocator().replica_counts()
