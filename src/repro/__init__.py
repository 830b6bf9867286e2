"""Tashkent+ reproduction: memory-aware load balancing and update filtering
in replicated databases (Elnikety, Dropsho, Zwaenepoel -- EuroSys 2007).

The package is organised as:

* :mod:`repro.core` -- the paper's contribution: working-set estimation,
  transaction grouping (MALB-S / MALB-SC / MALB-SCAP), dynamic replica
  allocation, the baseline policies (round robin, least connections, LARD)
  and update filtering.
* :mod:`repro.storage` -- the single-replica database substrate: schemas,
  catalog, planner, buffer pool, disk model and execution engine.
* :mod:`repro.replication` -- the Tashkent substrate: writesets, certifier,
  proxies, replicas and the replicated cluster.
* :mod:`repro.sim` -- the discrete-event simulation substrate.
* :mod:`repro.workloads` -- TPC-W and RUBiS workload models.
* :mod:`repro.experiments` -- configurations and runners that regenerate
  every table and figure of the paper's evaluation.
"""

from repro.core import (
    GroupingMethod,
    LardBalancer,
    LeastConnectionsBalancer,
    MemoryAwareLoadBalancer,
    RoundRobinBalancer,
)
from repro.replication import ClusterConfig, ReplicatedCluster, RunResult
from repro.workloads import make_rubis, make_tpcw

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "GroupingMethod",
    "LardBalancer",
    "LeastConnectionsBalancer",
    "MemoryAwareLoadBalancer",
    "ReplicatedCluster",
    "RoundRobinBalancer",
    "RunResult",
    "__version__",
    "make_rubis",
    "make_tpcw",
]
