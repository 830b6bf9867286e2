"""Workload models: transaction-type specs, TPC-W and RUBiS, generators."""

from repro.workloads.generator import MixPhase, WorkloadGenerator, WorkloadSchedule
from repro.workloads.rubis import make_rubis
from repro.workloads.spec import (
    AccessPattern,
    Mix,
    TableAccess,
    TransactionType,
    WorkloadSpec,
    WriteSpec,
    lookup,
    scan,
    transaction_type,
    write,
)
from repro.workloads.tpcw import (
    BASE_EBS,
    DATABASE_SIZES,
    make_tpcw,
)

__all__ = [
    "AccessPattern",
    "BASE_EBS",
    "DATABASE_SIZES",
    "Mix",
    "MixPhase",
    "TableAccess",
    "TransactionType",
    "WorkloadGenerator",
    "WorkloadSchedule",
    "WorkloadSpec",
    "WriteSpec",
    "lookup",
    "make_rubis",
    "make_tpcw",
    "scan",
    "transaction_type",
    "write",
]
