"""Tests for the load-monitoring daemons."""

import pytest

from repro.core.routing import RoutingTable
from repro.sim import monitor as monitor_module
from repro.sim.monitor import ClusterMonitor, LoadSample, ReplicaMonitor
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator


def test_load_sample_bottleneck():
    assert LoadSample(cpu=0.3, disk=0.8).bottleneck == 0.8
    assert LoadSample(cpu=0.9, disk=0.1).bottleneck == 0.9


def test_monitor_measures_utilisation(monkeypatch):
    monkeypatch.setattr(monitor_module, "SMOOTHING", 1.0)
    sim = Simulator()
    res = ReplicaResources.create(sim, 0)
    monitor = ReplicaMonitor(res, 0.0)
    res.cpu.acquire(5.0)
    res.disk.acquire(2.0)
    sim.run_until(10.0)
    sample = monitor.take_sample(10.0)
    assert sample.cpu == pytest.approx(0.5)
    assert sample.disk == pytest.approx(0.2)


def test_monitor_smooths_samples():
    sim = Simulator()
    res = ReplicaResources.create(sim, 0)
    monitor = ReplicaMonitor(res, 0.0)
    res.cpu.acquire(10.0)
    sim.run_until(10.0)
    monitor.take_sample(10.0)            # cpu=1.0
    sim.run_until(20.0)                  # idle window
    sample = monitor.take_sample(20.0)
    assert 0.4 < sample.cpu < 0.6


def test_cluster_monitor_periodic_sampling():
    sim = Simulator()
    routing = RoutingTable()
    monitor = ClusterMonitor(sim, routing)
    res = ReplicaResources.create(sim, 0)
    monitor.register(0, res)
    monitor.start()
    res.disk.acquire(5.0)
    sim.run_until(6.0)
    assert routing.load_of(0).disk > 0.0
    # The routing table is the one store: it holds the monitor's sample
    # itself, and only registered replicas publish.
    assert routing.load_of(0) is monitor._monitors[0].sample
    assert list(routing._samples) == [0]
    assert 9 not in routing._samples
    assert routing.load_of(9) == LoadSample()



def test_a_replica_registered_mid_run_samples_from_its_registration():
    """A joiner's (or restored replica's) first sample covers only the time
    since it entered service: earlier busy time and the idle stretch before
    the join must not dilute the replay it is doing now."""
    sim = Simulator()
    routing = RoutingTable()
    monitor = ClusterMonitor(sim, routing)
    monitor.start()
    res = ReplicaResources.create(sim, 0)
    res.disk.acquire(50.0)                 # busy over [0, 50], before the join
    sim.run_until(101.0)
    monitor.register(0, res)
    res.disk.add_background_work(10.0)     # log replay, busy over [101, 111]
    sim.run_until(105.0)                   # the next sample, over [101, 105]
    assert routing.load_of(0).disk == pytest.approx(1.0)
    assert routing.load_of(0).cpu == 0.0
