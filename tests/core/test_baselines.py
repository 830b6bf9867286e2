"""Tests for the baseline load balancers (round robin, least connections, LARD)."""

import pytest

from repro.core.baselines import LardBalancer, LeastConnectionsBalancer, RoundRobinBalancer
from repro.core.routing import RoutingTable
from repro.storage.catalog import Catalog
from repro.storage.planner import QueryPlanner

from tests.conftest import make_tiny_workload


def server_sets(lard):
    """LARD's current type -> server-set mapping."""
    return {name: list(state.servers) for name, state in lard._types.items()}


class FakeView:
    """Minimal ClusterView for exercising policies without a simulator.

    Owns a real :class:`RoutingTable`, as the cluster does; tests poke
    outstanding counters through :meth:`set_outstanding`.
    """

    def __init__(self, replicas=4):
        self.workload_spec = make_tiny_workload()
        self._catalog = Catalog(schema=self.workload_spec.schema)
        self._planner = QueryPlanner(catalog=self._catalog)
        self.routing = RoutingTable()
        for rid in range(replicas):
            self.routing.add_replica(rid)

    def set_outstanding(self, rid: int, count: int) -> None:
        self.routing.outstanding[rid] = count

    def reset_outstanding(self) -> None:
        for rid in self.routing.replica_ids():
            self.routing.outstanding[rid] = 0

    def replica_memory_bytes(self) -> int:
        return 32 * 2**20

    def catalog(self):
        return self._catalog

    def planner(self):
        return self._planner

    def workload(self):
        return self.workload_spec


def test_round_robin_cycles():
    view = FakeView(3)
    rr = RoundRobinBalancer()
    rr.attach(view)
    t = view.workload_spec.type("Read")
    assert [rr.dispatch(t) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_least_connections_picks_least_loaded():
    view = FakeView(3)
    lc = LeastConnectionsBalancer()
    lc.attach(view)
    for rid, count in {0: 5, 1: 2, 2: 7}.items():
        view.set_outstanding(rid, count)
    assert lc.dispatch(view.workload_spec.type("Read")) == 1


def test_balancer_requires_attach():
    lc = LeastConnectionsBalancer()
    with pytest.raises(RuntimeError):
        lc.dispatch(make_tiny_workload().type("Read"))


def test_lard_keeps_type_affinity_when_not_overloaded():
    view = FakeView(4)
    lard = LardBalancer()
    lard.attach(view)
    t = view.workload_spec.type("Read")
    first = lard.dispatch(t)
    assert all(lard.dispatch(t) == first for _ in range(5))
    assert server_sets(lard)["Read"] == [first]


def test_lard_spills_when_server_overloaded():
    view = FakeView(4)
    lard = LardBalancer()
    lard.HIGH_WATERMARK = 4
    lard.attach(view)
    t = view.workload_spec.type("Read")
    first = lard.dispatch(t)
    view.set_outstanding(first, 10)            # overload the affinity server
    second = lard.dispatch(t)
    assert second != first
    assert set(server_sets(lard)["Read"]) == {first, second}


def test_lard_stops_expanding_when_all_replicas_busy():
    view = FakeView(2)
    lard = LardBalancer()
    lard.HIGH_WATERMARK = 4
    lard.attach(view)
    t = view.workload_spec.type("Read")
    first = lard.dispatch(t)
    for rid in view.routing.replica_ids():
        view.set_outstanding(rid, 10)
    assert lard.dispatch(t) == first          # "turns off" instead of spilling


def test_lard_shrinks_idle_server_sets():
    view = FakeView(4)
    lard = LardBalancer()
    lard.HIGH_WATERMARK = 2
    lard.LOW_WATERMARK = 1
    lard.attach(view)
    t = view.workload_spec.type("Read")
    first = lard.dispatch(t)
    view.set_outstanding(first, 5)
    lard.dispatch(t)
    assert len(server_sets(lard)["Read"]) == 2
    view.reset_outstanding()
    lard.periodic(now=100.0)
    assert len(server_sets(lard)["Read"]) == 1


def test_different_types_can_use_different_replicas():
    view = FakeView(4)
    lard = LardBalancer()
    lard.attach(view)
    read_replica = lard.dispatch(view.workload_spec.type("Read"))
    view.set_outstanding(read_replica, view.routing.outstanding[read_replica] + 1)
    scan_replica = lard.dispatch(view.workload_spec.type("Scan"))
    assert scan_replica != read_replica
