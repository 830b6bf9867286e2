"""Unreliable-network fault model for the replicated cluster.

The paper's architecture (replicas plus a replicated certifier over a LAN)
claims to tolerate failures, but a reproduction that models every
replica-certifier exchange as a perfectly reliable fixed-latency event can
never exercise those claims.  This package supplies the missing fault
model:

* :mod:`repro.net.channel` -- a seeded, deterministic :class:`Channel` per
  replica-certifier link with configurable drop probability, latency
  jitter, duplication, reordering, and schedulable partitions/heals, plus
  the :class:`Network` that owns one channel per link;
* :mod:`repro.net.invariants` -- the :class:`ConsistencyChecker` that
  audits a finished run against the generalized-snapshot-isolation
  guarantees (certifier log is a total order, replica state is a prefix of
  it, no certified update lost or applied twice, in-flight work resolved).

The default is no network model at all (``ClusterConfig.network = False``):
round trips go through the exact single ``sim.schedule`` they always used, so
seeded goldens are bit-identical with the package present.
"""

from repro.net.channel import Channel, ChannelConfig, Network
from repro.net.invariants import ConsistencyChecker, InvariantReport, Violation

__all__ = [
    "Channel",
    "ChannelConfig",
    "Network",
    "ConsistencyChecker",
    "InvariantReport",
    "Violation",
]
