"""Elasticity: live membership, fault injection and autoscaling.

The paper's experiments hold the replica set fixed, but its architecture is
explicitly designed for churn: Section 3 sketches crash recovery from the
certifier's persistent log, and Figure 6 shows the load balancer re-forming
its allocation when the workload shifts under it.  This package makes the
replica set itself dynamic inside a running simulation:

* :mod:`repro.elasticity.faults` -- a fault injector that schedules replica
  crashes, restarts and certifier fail-over at simulated times;
* :mod:`repro.elasticity.autoscaler` -- a utilisation-driven policy that
  grows and shrinks the replica set within bounds, forcing MALB to
  re-allocate and re-plan update filtering on every change.
"""

from repro.elasticity.autoscaler import Autoscaler, ScalingDecision
from repro.elasticity.faults import FaultInjector, FaultRecord

__all__ = [
    "Autoscaler",
    "FaultInjector",
    "FaultRecord",
]
