"""Dynamic replica allocation (Section 2.4).

Once transaction groups exist, the load balancer must decide how many
replicas each group gets, and keep adjusting that as the workload shifts.
What runs here:

* **Group load** -- the average of the smoothed (CPU, disk) utilisations of
  the replicas assigned to the group.
* **Comparing loads** -- MAX(CPU, disk): the utilisation of the bottleneck
  resource, so I/O-bound and CPU-bound groups are comparable.
* **Group sizing** -- MALB moves replicas toward demand-proportional
  targets (:meth:`repro.core.malb.MemoryAwareLoadBalancer._apply_demand_targets`).
  The paper's single-replica move with ``1.25x`` hysteresis and its
  balance-equation "fast" re-allocation are not modelled: the demand
  targets do that job.
* **Merging** -- two groups that each under-utilise a single replica are
  assigned one shared replica, freeing the other for the busiest group.  If
  the shared replica later becomes the most loaded in the system, the groups
  are split back apart before any other re-allocation ("the MALB-SC
  algorithm prioritizes the undoing of merging before allocating additional
  replicas", Section 5.3).
* **Expanding and contracting** -- an overloaded group with no exclusive
  donor spills onto the coldest machine (subject to ``1.25x`` hysteresis),
  and gives a shared machine back once its load falls.

:meth:`ReplicaAllocator.rebalance` runs split, merge, expand and contract,
in that order, and applies the first that fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core.grouping import TransactionGroup
from repro.sim.monitor import LoadSample

INFINITE_LOAD = float("inf")


@dataclass
class GroupLoad:
    """Load summary of one transaction group (the paper's (CPU, disk) pair)."""

    cpu: float
    disk: float
    replicas: int

    @property
    def bottleneck(self) -> float:
        return max(self.cpu, self.disk)

    @property
    def future_bottleneck(self) -> float:
        """Extrapolated bottleneck utilisation if one replica were removed."""
        if self.replicas <= 1:
            return INFINITE_LOAD
        return self.bottleneck * self.replicas / (self.replicas - 1)


class ReplicaAllocator:
    """Owns the group -> replicas assignment and adjusts it from load reports."""

    #: an expanding group must be at least this many times hotter than the
    #: machine it spills onto (hysteresis against noisy measurements).
    HYSTERESIS = 1.25

    #: singleton groups below this bottleneck utilisation may merge.
    MERGE_THRESHOLD = 0.35

    #: a group must be at least this hot (bottleneck utilisation) before it
    #: may expand onto a machine it does not own (sharing).
    EXPAND_THRESHOLD = 0.75

    #: a group may give a machine back when its extrapolated load without
    #: that machine stays below this utilisation.
    CONTRACT_THRESHOLD = 0.5

    def __init__(self, groups: Sequence[TransactionGroup], replica_ids: Sequence[int]) -> None:
        if not groups:
            raise ValueError("allocator needs at least one transaction group")
        if not replica_ids:
            raise ValueError("allocator needs at least one replica")
        self.groups: Dict[str, TransactionGroup] = {g.group_id: g for g in groups}
        self.replica_ids: List[int] = sorted(replica_ids)
        self.assignment: Dict[str, List[int]] = {}
        self.frozen = False
        #: assignment version: bumped whenever the group -> replicas mapping
        #: may have changed, so balancers can cache routing state derived
        #: from it (MALB's type -> candidate-replica table) and re-derive it
        #: only on change instead of per dispatch.
        self.version = 0
        self._initial_allocation()

    # ------------------------------------------------------------------
    # Initial allocation
    # ------------------------------------------------------------------
    def _initial_allocation(self) -> None:
        """Distribute replicas across groups, larger estimated groups first.

        Every group gets at least one replica; remaining replicas are dealt
        out round-robin in decreasing order of estimated working-set size
        (a reasonable prior before any load measurements arrive).  When the
        cluster is smaller than the number of groups (a scaled-down or
        not-yet-scaled-up elastic cluster), groups share replicas
        round-robin instead -- every transaction type stays servable and
        the allocator can still grow the assignment as replicas join.
        """
        ordered_groups = sorted(
            self.groups.values(), key=lambda g: (-g.estimated_bytes, g.group_id)
        )
        self.assignment = {g.group_id: [] for g in ordered_groups}
        if len(self.replica_ids) < len(ordered_groups):
            for index, group in enumerate(ordered_groups):
                replica = self.replica_ids[index % len(self.replica_ids)]
                self.assignment[group.group_id].append(replica)
            self.validate()
            return
        replicas = list(self.replica_ids)
        # One replica for each group first (availability), then round-robin.
        for group in ordered_groups:
            self.assignment[group.group_id].append(replicas.pop(0))
        index = 0
        while replicas:
            group = ordered_groups[index % len(ordered_groups)]
            self.assignment[group.group_id].append(replicas.pop(0))
            index += 1
        self.validate()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def replicas_of(self, group_id: str) -> List[int]:
        return list(self.assignment[group_id])

    def groups_of_replica(self, replica_id: int) -> List[str]:
        return [gid for gid, replicas in self.assignment.items() if replica_id in replicas]

    def shared_replicas(self) -> List[int]:
        """Replicas currently serving more than one group (merged groups)."""
        return [rid for rid in self.replica_ids if len(self.groups_of_replica(rid)) > 1]

    def replica_counts(self) -> Dict[str, int]:
        return {gid: len(replicas) for gid, replicas in self.assignment.items()}

    def group_load(self, group_id: str, loads: Mapping[int, LoadSample]) -> GroupLoad:
        """Average the member replicas' smoothed utilisations (Section 2.4)."""
        replicas = self.assignment[group_id]
        if not replicas:
            return GroupLoad(cpu=0.0, disk=0.0, replicas=0)
        cpu = sum(loads[rid].cpu for rid in replicas) / len(replicas)
        disk = sum(loads[rid].disk for rid in replicas) / len(replicas)
        return GroupLoad(cpu=cpu, disk=disk, replicas=len(replicas))

    def group_loads(self, loads: Mapping[int, LoadSample]) -> Dict[str, GroupLoad]:
        return {gid: self.group_load(gid, loads) for gid in self.assignment}

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the assignment invariants (and publish a new version).

        Every mutation path -- initial allocation, membership changes,
        merge/split/expand/contract, and MALB's demand-target moves -- ends
        with a ``validate()`` call, which makes it the single choke point for
        signalling "the assignment may have changed" to version-keyed
        caches.  A validate that changed nothing only costs those caches a
        spurious rebuild.
        """
        self.version += 1
        assigned: Set[int] = set()
        for group_id, replicas in self.assignment.items():
            if not replicas:
                raise AssertionError("group %s has no replicas" % group_id)
            if len(set(replicas)) != len(replicas):
                raise AssertionError("group %s lists a replica twice" % group_id)
            assigned.update(replicas)
        if assigned - set(self.replica_ids):
            raise AssertionError("assignment references unknown replicas")
        unassigned = set(self.replica_ids) - assigned
        if unassigned:
            raise AssertionError("replicas %s are not assigned to any group" % sorted(unassigned))

    # ------------------------------------------------------------------
    # Re-allocation
    # ------------------------------------------------------------------
    def rebalance(self, loads: Mapping[int, LoadSample]) -> Optional[str]:
        """One re-allocation step from the latest load report.

        Undo merging if a shared replica is the hottest machine; otherwise
        merge under-utilised singleton groups; otherwise let an overloaded
        group expand onto the coldest machine; otherwise let a cooled group
        release a shared machine.  Returns the kind of step taken
        (``"split"``, ``"merge"``, ``"expand"`` or ``"contract"``), or
        ``None`` when frozen or when nothing fired.
        """
        if self.frozen:
            return None
        return (self._try_split(loads)
                or self._try_merge(loads)
                or self._try_expand(loads)
                or self._try_contract(loads))

    def freeze(self) -> None:
        """Stop all re-allocation (used when update filtering is enabled;
        the paper disables dynamic allocation in that case, Section 4.2.3)."""
        self.frozen = True

    # ------------------------------------------------------------------
    # Membership changes (elasticity)
    # ------------------------------------------------------------------
    def add_replica(self, replica_id: int) -> None:
        """Admit a replica that just joined the cluster.

        The newcomer goes to the group with the fewest replicas; the demand
        targets and the utilisation-based rebalance move it afterwards.
        Membership changes apply even to a frozen allocation -- freezing
        stops optimisation, not reality.
        """
        if replica_id in self.replica_ids:
            raise ValueError("replica %d is already allocated" % (replica_id,))
        self.replica_ids.append(replica_id)
        self.replica_ids.sort()
        group_id = min(self.assignment,
                       key=lambda gid: (len(self.assignment[gid]), gid))
        self.assignment[group_id].append(replica_id)
        self.validate()

    def remove_replica(self, replica_id: int) -> None:
        """Retire a replica that crashed or left the cluster.

        Groups left without a replica share the surviving machine hosting
        the fewest groups, so every transaction type stays servable even
        when the cluster shrinks below one replica per group.
        """
        if replica_id not in self.replica_ids:
            raise ValueError("replica %d is not allocated" % (replica_id,))
        if len(self.replica_ids) <= 1:
            raise ValueError("cannot remove the last replica")
        self.replica_ids.remove(replica_id)
        for replicas in self.assignment.values():
            if replica_id in replicas:
                replicas.remove(replica_id)
        for replicas in self.assignment.values():
            if not replicas:
                replicas.append(min(
                    self.replica_ids,
                    key=lambda rid: (len(self.groups_of_replica(rid)), rid)))
        self.validate()

    # ------------------------------------------------------------------
    # Merging and splitting of under-utilised groups
    # ------------------------------------------------------------------
    def _try_merge(self, loads: Mapping[int, LoadSample]) -> Optional[str]:
        group_loads = self.group_loads(loads)
        # Candidates: groups with exactly one replica that is not already
        # shared, whose bottleneck utilisation is below the merge threshold.
        candidates = []
        for gid, gl in group_loads.items():
            if gl.replicas != 1:
                continue
            replica = self.assignment[gid][0]
            if len(self.groups_of_replica(replica)) > 1:
                continue
            if gl.bottleneck < self.MERGE_THRESHOLD:
                candidates.append((gl.bottleneck, gid))
        if len(candidates) < 2:
            return None
        candidates.sort()
        (_, group_a), (_, group_b) = candidates[0], candidates[1]
        keep_replica = self.assignment[group_a][0]
        freed_replica = self.assignment[group_b][0]
        # Both groups now share keep_replica.
        self.assignment[group_b] = [keep_replica]
        # The freed replica goes to the most loaded group.
        most_loaded = max(group_loads, key=lambda gid: group_loads[gid].bottleneck)
        if freed_replica not in self.assignment[most_loaded]:
            self.assignment[most_loaded].append(freed_replica)
        self.validate()
        return "merge"

    def _try_split(self, loads: Mapping[int, LoadSample]) -> Optional[str]:
        shared = self.shared_replicas()
        if not shared:
            return None
        # Is a shared replica the most loaded machine in the system?
        hottest = max(self.replica_ids, key=lambda rid: loads[rid].bottleneck)
        if hottest not in shared:
            return None
        sharing_groups = self.groups_of_replica(hottest)
        # Find a replica to take from the group with the lowest future load.
        group_loads = self.group_loads(loads)
        donors = {
            gid: gl for gid, gl in group_loads.items()
            if gid not in sharing_groups and gl.replicas > 1
        }
        if not donors:
            return None
        donor = min(donors, key=lambda gid: donors[gid].future_bottleneck)
        # The donor gives up its least-loaded replica that serves it alone.
        unshared = [rid for rid in self.assignment[donor]
                    if len(self.groups_of_replica(rid)) == 1]
        if not unshared:
            return None
        replica = min(unshared, key=lambda rid: (loads[rid].bottleneck, rid))
        # Give the second sharing group its own replica again: it leaves the
        # hot shared machine and takes the donated one (keeping any other
        # machines it had acquired, e.g. through expansion).
        split_group = sharing_groups[-1]
        self.assignment[donor].remove(replica)
        members = self.assignment[split_group]
        members.remove(hottest)
        members.append(replica)
        self.validate()
        return "split"

    def _try_expand(self, loads: Mapping[int, LoadSample]) -> Optional[str]:
        """Let an overloaded group spill onto the least-loaded machine.

        When the cluster has fewer machines than groups (an elastic cluster
        scaled down, or newly grown with the newcomers claimed exclusively),
        no replica can move to the hot group: every other group would drop
        to zero replicas.  The way out is sharing in reverse -- the hottest
        group *adds* the least-loaded machine to its replica set, subject to
        ``HYSTERESIS``.  The split rule later undoes the sharing when
        capacity returns.
        """
        group_loads = self.group_loads(loads)
        most_loaded = max(group_loads, key=lambda gid: group_loads[gid].bottleneck)
        hot = group_loads[most_loaded]
        if hot.bottleneck < self.EXPAND_THRESHOLD:
            return None
        candidates = [rid for rid in self.replica_ids
                      if rid not in self.assignment[most_loaded]]
        if not candidates:
            return None
        coldest = min(candidates, key=lambda rid: (loads[rid].bottleneck, rid))
        cold = loads[coldest].bottleneck
        if hot.bottleneck < self.HYSTERESIS * max(cold, 0.01):
            return None
        self.assignment[most_loaded].append(coldest)
        self.validate()
        return "expand"

    def _try_contract(self, loads: Mapping[int, LoadSample]) -> Optional[str]:
        """Undo expansion once the pressure is gone.

        The least-loaded group whose extrapolated one-fewer-replica load
        stays comfortable gives up its most-shared machine.  This
        re-concentrates working sets (restoring memory-awareness diluted by
        flash-crowd expansion) and drains load off machines the autoscaler
        can then retire.  Machines serving only that group are never
        dropped -- that would orphan them.
        """
        group_loads = self.group_loads(loads)
        candidates = [
            (gl.future_bottleneck, gid) for gid, gl in group_loads.items()
            if gl.replicas > 1 and gl.future_bottleneck < self.CONTRACT_THRESHOLD
        ]
        if not candidates:
            return None
        candidates.sort()
        for _, group_id in candidates:
            members = self.assignment[group_id]
            shared = [rid for rid in members if len(self.groups_of_replica(rid)) > 1]
            if not shared:
                continue
            victim = max(shared, key=lambda rid: (len(self.groups_of_replica(rid)), rid))
            members.remove(victim)
            self.validate()
            return "contract"
        return None
