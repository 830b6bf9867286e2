"""Tests for the utilisation-based replica allocator (Section 2.4)."""

import pytest

from repro.core.allocation import ReplicaAllocator
from repro.core.grouping import TransactionGroup
from repro.sim.monitor import LoadSample


def group(gid, types=None, size=100):
    return TransactionGroup(group_id=gid, type_names=types or [gid],
                            relation_bytes={gid: size}, estimated_bytes=size)


def loads_for(allocator, per_group):
    """Build a replica->LoadSample map giving every replica of a group the same load."""
    loads = {}
    for gid, (cpu, disk) in per_group.items():
        for rid in allocator.replicas_of(gid):
            loads[rid] = LoadSample(cpu=cpu, disk=disk)
    for rid in allocator.replica_ids:
        loads.setdefault(rid, LoadSample())
    return loads


def test_initial_allocation_covers_all_replicas():
    alloc = ReplicaAllocator([group("A"), group("B"), group("C")], replica_ids=range(8))
    alloc.validate()
    counts = alloc.replica_counts()
    assert sum(counts.values()) == 8
    assert all(count >= 1 for count in counts.values())


def test_more_groups_than_replicas_share_machines():
    alloc = ReplicaAllocator([group("A"), group("B"), group("C")], replica_ids=[0, 1])
    counts = alloc.replica_counts()
    assert all(count >= 1 for count in counts.values())
    assert alloc.shared_replicas()  # at least one replica serves two groups
    alloc.validate()


def test_no_replicas_rejected():
    with pytest.raises(ValueError):
        ReplicaAllocator([group("A")], replica_ids=[])


def test_group_load_is_average_of_member_replicas():
    alloc = ReplicaAllocator([group("A"), group("B")], replica_ids=range(4))
    loads = loads_for(alloc, {"A": (0.4, 0.1), "B": (0.2, 0.6)})
    load_a = alloc.group_load("A", loads)
    assert load_a.cpu == pytest.approx(0.4)
    assert load_a.bottleneck == pytest.approx(0.4)
    assert alloc.group_load("B", loads).bottleneck == pytest.approx(0.6)


def test_future_load_extrapolation():
    alloc = ReplicaAllocator([group("A"), group("B")], replica_ids=range(6))
    loads = loads_for(alloc, {"A": (0.46, 0.1), "B": (0.1, 0.1)})
    load_a = alloc.group_load("A", loads)
    # Paper example: 46% over 3 replicas -> 69% over 2.
    assert load_a.future_bottleneck == pytest.approx(0.46 * load_a.replicas / (load_a.replicas - 1))


def test_donor_never_drops_to_zero_replicas():
    groups = [group("donor"), group("p"), group("q")]
    # p and q share replica 1, the hottest machine; the only possible donor
    # has a single replica, so the split must decline rather than take it.
    alloc = ReplicaAllocator(groups, replica_ids=range(2))
    alloc.assignment = {"donor": [0], "p": [1], "q": [1]}
    alloc.validate()
    loads = {0: LoadSample(cpu=0.9, disk=0.1), 1: LoadSample(cpu=0.99, disk=0.9)}
    assert alloc.rebalance(loads) is None
    assert alloc.assignment == {"donor": [0], "p": [1], "q": [1]}
    # With two replicas the donor gives up its least-loaded one and keeps
    # the other.
    alloc = ReplicaAllocator(groups, replica_ids=range(3))
    alloc.assignment = {"donor": [0, 1], "p": [2], "q": [2]}
    alloc.validate()
    loads = {0: LoadSample(cpu=0.6, disk=0.1), 1: LoadSample(cpu=0.5, disk=0.1),
             2: LoadSample(cpu=0.99, disk=0.9)}
    assert alloc.rebalance(loads) == "split"
    assert alloc.assignment == {"donor": [0], "p": [2], "q": [1]}
    assert all(count >= 1 for count in alloc.replica_counts().values())


def test_merging_of_underutilised_singletons():
    groups = [group("busy"), group("idle1"), group("idle2")]
    alloc = ReplicaAllocator(groups, replica_ids=range(3))
    loads = loads_for(alloc, {"busy": (0.9, 0.3), "idle1": (0.05, 0.02), "idle2": (0.04, 0.02)})
    assert alloc.rebalance(loads) == "merge"
    assert len(alloc.shared_replicas()) == 1
    assert len(alloc.replicas_of("busy")) == 2


def test_split_when_shared_replica_becomes_hottest():
    groups = [group("busy"), group("idle1"), group("idle2")]
    alloc = ReplicaAllocator(groups, replica_ids=range(4))
    loads = loads_for(alloc, {"busy": (0.9, 0.3), "idle1": (0.05, 0.02), "idle2": (0.04, 0.02)})
    alloc.rebalance(loads)                     # merge happens
    shared = alloc.shared_replicas()[0]
    loads = {rid: LoadSample(cpu=0.2, disk=0.2) for rid in alloc.replica_ids}
    loads[shared] = LoadSample(cpu=0.99, disk=0.9)
    assert alloc.rebalance(loads) == "split"
    assert alloc.shared_replicas() == []


def test_split_takes_precedence_over_merge():
    groups = [group(gid) for gid in ("busy", "p", "q", "r", "s")]
    alloc = ReplicaAllocator(groups, replica_ids=range(6))
    # p and q share replica 3; r and s are idle singletons that could merge.
    alloc.assignment = {"busy": [0, 1, 2], "p": [3], "q": [3], "r": [4], "s": [5]}
    alloc.validate()
    loads = {rid: LoadSample(cpu=0.5, disk=0.1) for rid in (0, 1, 2)}
    loads[3] = LoadSample(cpu=0.99, disk=0.9)
    loads[4] = LoadSample(cpu=0.05, disk=0.02)
    loads[5] = LoadSample(cpu=0.04, disk=0.02)
    assert alloc.rebalance(loads) == "split"
    assert alloc.shared_replicas() == []
    # The merge was eligible all along; it runs on the next step.
    assert alloc.rebalance(loads) == "merge"
    assert alloc.replicas_of("r") == alloc.replicas_of("s")


def test_hot_group_expands_onto_coldest_machine():
    alloc = ReplicaAllocator([group("hot"), group("cold")], replica_ids=range(4))
    cold_replicas = alloc.replicas_of("cold")
    loads = loads_for(alloc, {"hot": (0.9, 0.2)})
    loads[cold_replicas[0]] = LoadSample(cpu=0.3, disk=0.1)
    loads[cold_replicas[1]] = LoadSample(cpu=0.1, disk=0.1)
    assert alloc.rebalance(loads) == "expand"
    assert cold_replicas[1] in alloc.replicas_of("hot")
    assert alloc.shared_replicas() == [cold_replicas[1]]
    assert alloc.replicas_of("cold") == cold_replicas


def test_hysteresis_blocks_marginal_expand():
    alloc = ReplicaAllocator([group("hot"), group("warm")], replica_ids=range(4))
    before = {gid: alloc.replicas_of(gid) for gid in ("hot", "warm")}
    # 0.80 is hot enough to expand, but not 1.25x the coldest machine's 0.70.
    loads = loads_for(alloc, {"hot": (0.80, 0.1), "warm": (0.70, 0.1)})
    assert 0.80 < ReplicaAllocator.HYSTERESIS * 0.70
    assert alloc.rebalance(loads) is None
    assert {gid: alloc.replicas_of(gid) for gid in ("hot", "warm")} == before
    # Once the margin clears the hysteresis, the same group expands.
    loads = loads_for(alloc, {"hot": (0.80, 0.1), "warm": (0.60, 0.1)})
    assert alloc.rebalance(loads) == "expand"


def test_contract_releases_shared_machine_once_load_falls():
    alloc = ReplicaAllocator([group("hot"), group("cold")], replica_ids=range(4))
    loads = loads_for(alloc, {"hot": (0.9, 0.2), "cold": (0.1, 0.1)})
    assert alloc.rebalance(loads) == "expand"
    assert len(alloc.shared_replicas()) == 1
    # While the pressure lasts, nothing is given back.
    loads = loads_for(alloc, {"hot": (0.7, 0.2), "cold": (0.6, 0.1)})
    assert alloc.rebalance(loads) is None
    assert len(alloc.shared_replicas()) == 1
    # Load falls everywhere: the shared machine is released.
    loads = loads_for(alloc, {"hot": (0.1, 0.1), "cold": (0.1, 0.1)})
    assert alloc.rebalance(loads) == "contract"
    assert alloc.shared_replicas() == []
    assert alloc.rebalance(loads) is None
    alloc.validate()


def test_freeze_stops_reallocation():
    alloc = ReplicaAllocator([group("hot"), group("cold")], replica_ids=range(4))
    loads = loads_for(alloc, {"hot": (1.0, 1.0), "cold": (0.0, 0.0)})
    frozen = ReplicaAllocator([group("hot"), group("cold")], replica_ids=range(4))
    frozen.freeze()
    assert frozen.rebalance(loads) is None
    assert alloc.rebalance(loads) is not None


def test_validate_detects_corruption():
    alloc = ReplicaAllocator([group("a"), group("b")], replica_ids=range(4))
    alloc.assignment["a"] = []
    with pytest.raises(AssertionError):
        alloc.validate()
