"""Discrete-event simulation substrate: event loop, resources, clients, metrics."""

from repro.sim.clients import ClientPopulation
from repro.sim.events import EventQueue
from repro.sim.metrics import MetricsCollector, ThroughputPoint
from repro.sim.monitor import ClusterMonitor, LoadSample, ReplicaMonitor
from repro.sim.resources import ReplicaResources, Resource
from repro.sim.simulator import Simulator

__all__ = [
    "ClientPopulation",
    "ClusterMonitor",
    "EventQueue",
    "LoadSample",
    "MetricsCollector",
    "ReplicaMonitor",
    "ReplicaResources",
    "Resource",
    "Simulator",
    "ThroughputPoint",
]
