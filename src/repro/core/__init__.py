"""The paper's contribution: memory-aware load balancing and update filtering."""

from repro.core.allocation import GroupLoad, ReplicaAllocator
from repro.core.balancer import ClusterView, LoadBalancer
from repro.core.baselines import LardBalancer, LeastConnectionsBalancer, RoundRobinBalancer
from repro.core.bin_packing import Bin, PackItem, pack_by_size, pack_with_overlap
from repro.core.estimator import WorkingSetEstimator, measure_working_set
from repro.core.grouping import (
    GroupingMethod,
    TransactionGroup,
    build_groups,
    group_of_type,
)
from repro.core.malb import MemoryAwareLoadBalancer
from repro.core.routing import RoutingTable
from repro.core.update_filtering import (
    FilterPlan,
    compute_filter_plan,
    tables_used_by_types,
)
from repro.core.working_set import WorkingSetEstimate, union_relation_bytes

__all__ = [
    "Bin",
    "ClusterView",
    "FilterPlan",
    "GroupLoad",
    "GroupingMethod",
    "LardBalancer",
    "LeastConnectionsBalancer",
    "LoadBalancer",
    "MemoryAwareLoadBalancer",
    "PackItem",
    "ReplicaAllocator",
    "RoundRobinBalancer",
    "RoutingTable",
    "TransactionGroup",
    "WorkingSetEstimate",
    "WorkingSetEstimator",
    "build_groups",
    "compute_filter_plan",
    "group_of_type",
    "measure_working_set",
    "pack_by_size",
    "pack_with_overlap",
    "tables_used_by_types",
    "union_relation_bytes",
]
