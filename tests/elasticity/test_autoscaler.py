"""Tests for the utilisation-driven autoscaler."""

import pytest

from repro.core.baselines import LeastConnectionsBalancer
from repro.elasticity.autoscaler import Autoscaler
from repro.replication.cluster import ClusterConfig, ReplicatedCluster
from repro.sim.monitor import LoadSample
from repro.storage.pages import mb

from tests.conftest import make_tiny_workload


def make_cluster(replicas=2):
    return ReplicatedCluster(
        workload=make_tiny_workload(),
        balancer=LeastConnectionsBalancer(),
        config=ClusterConfig(num_replicas=replicas, replica_ram_bytes=mb(192),
                             clients_per_replica=2, think_time_s=0.1, seed=3),
        mix="balanced")


def set_load(cluster, value):
    """Publish a synthetic smoothed utilisation for every replica in service."""
    routing = cluster.routing
    for rid in routing.replica_ids():
        routing.publish_load(rid, LoadSample(cpu=value, disk=value))


def make_autoscaler(cluster, **overrides):
    """An autoscaler with test-sized bounds, thresholds and cooldown; the
    overrides set further attributes (bounds or class constants)."""
    autoscaler = Autoscaler(cluster)
    settings = dict(min_replicas=1, max_replicas=4, HIGH_WATERMARK=0.8,
                    LOW_WATERMARK=0.3, COOLDOWN_S=0.1, SCALE_UP_STEP=1)
    settings.update(overrides)
    for name, value in settings.items():
        setattr(autoscaler, name, value)
    return autoscaler


def test_bounds_follow_the_starting_size():
    autoscaler = Autoscaler(make_cluster(replicas=3))
    assert (autoscaler.min_replicas, autoscaler.max_replicas) == (3, 6)


def test_scales_up_after_consecutive_high_checks():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster)
    set_load(cluster, 0.95)
    assert autoscaler.check() is None          # first breach: not yet
    decision = autoscaler.check()              # second breach: scale up
    assert decision is not None and decision.action == "scale-up"
    assert len(cluster.replicas) == 3


def test_one_low_check_resets_the_high_streak():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster)
    set_load(cluster, 0.95)
    autoscaler.check()
    set_load(cluster, 0.5)                     # back to normal
    autoscaler.check()
    set_load(cluster, 0.95)
    assert autoscaler.check() is None          # streak restarted
    assert len(cluster.replicas) == 2


def test_scales_down_to_the_floor_but_not_below():
    cluster = make_cluster(replicas=3)
    autoscaler = make_autoscaler(cluster, min_replicas=2)
    set_load(cluster, 0.05)
    decisions = [autoscaler.check() for _ in range(8)]
    taken = [d for d in decisions if d is not None]
    assert taken and all(d.action == "scale-down" for d in taken)
    # Draining completes as the simulation advances.
    cluster.sim.run_until(cluster.sim.now + 30.0)
    assert len(cluster.replicas) == 2
    set_load(cluster, 0.05)
    assert autoscaler.check() is None          # at the floor: no action


def test_respects_the_ceiling():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster, max_replicas=3)
    set_load(cluster, 0.99)
    for _ in range(8):
        autoscaler.check()
        set_load(cluster, 0.99)                # new replicas join unmonitored-hot
    assert len(cluster.replicas) == 3


def test_cooldown_blocks_back_to_back_actions():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster, COOLDOWN_S=1000.0)
    set_load(cluster, 0.95)
    autoscaler.check()
    decision = autoscaler.check()
    assert decision is not None                # first action allowed
    set_load(cluster, 0.95)
    autoscaler.check()
    assert autoscaler.check() is None          # cooldown holds
    assert len(cluster.replicas) == 3


def test_queue_pressure_raises_the_signal_when_utilisation_saturates():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster, QUEUE_PRESSURE_NORM=4)
    set_load(cluster, 0.2)
    assert autoscaler.load_signal() == pytest.approx(0.2)
    for rid in cluster.replica_ids():
        cluster.routing.outstanding[rid] = 8          # deep queues, low utilisation
    assert autoscaler.load_signal() == pytest.approx(2.0)


def test_queue_pressure_differs_from_routing_effective_load():
    """The autoscaler counts any pressure (n / 12, on the bottleneck);
    routing counts it only above 1.0 (n / 8, on CPU alone)."""
    cluster = make_cluster(replicas=2)
    autoscaler = Autoscaler(cluster)
    set_load(cluster, 0.3)
    routing = cluster.routing
    for rid in routing.replica_ids():
        routing.outstanding[rid] = 6
    assert autoscaler.load_signal() == pytest.approx(0.5)
    for rid in routing.replica_ids():
        assert routing.effective_load(rid).cpu == pytest.approx(0.3)


def test_drains_back_down_when_membership_exceeds_the_ceiling():
    cluster = make_cluster(replicas=3)
    autoscaler = make_autoscaler(cluster, max_replicas=2, min_replicas=1)
    set_load(cluster, 0.5)                     # between the watermarks
    decision = autoscaler.check()
    assert decision is not None and decision.action == "scale-down"
    assert "above max_replicas" in decision.detail


def test_scaling_decisions_are_recorded():
    cluster = make_cluster(replicas=2)
    autoscaler = make_autoscaler(cluster)
    set_load(cluster, 0.9)
    autoscaler.check()
    autoscaler.check()
    assert len(autoscaler.decisions) == 1
    assert autoscaler.peak_replicas == 3
