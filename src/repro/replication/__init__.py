"""Tashkent replication substrate: writesets, certifier, replicas, cluster."""

from repro.replication.certifier import (CertificationResult, Certifier,
                                         CertifierStats, LagSubscriptionIndex)
from repro.replication.cluster import (
    ClusterConfig,
    MEMORY_OVERHEAD_BYTES,
    ReplicatedCluster,
    RunResult,
)
from repro.replication.replica import Replica, TransactionContext
from repro.replication.writeset import CertifiedWriteSet, WriteItem, WriteSet

__all__ = [
    "CertificationResult",
    "CertifiedWriteSet",
    "Certifier",
    "CertifierStats",
    "ClusterConfig",
    "LagSubscriptionIndex",
    "MEMORY_OVERHEAD_BYTES",
    "Replica",
    "ReplicatedCluster",
    "RunResult",
    "TransactionContext",
    "WriteItem",
    "WriteSet",
]
