"""Tests for the LoadBalancer base interface contract."""

import pytest

from repro.core.balancer import LoadBalancer
from repro.core.baselines import LeastConnectionsBalancer

from tests.core.test_baselines import FakeView


def test_default_hooks_are_neutral():
    view = FakeView(2)
    balancer = LeastConnectionsBalancer()
    balancer.attach(view)
    assert balancer.filter_tables(0) is None
    assert balancer.preferred_relations(0) is None
    balancer.observe_mix({"Read": 10})          # ignored by baselines
    balancer.periodic(now=10.0)                  # no-op
    assert balancer.groupings() == {}
    assert balancer.replica_counts() == {}
    assert balancer.name == "LeastConnections"


def test_abstract_balancer_cannot_be_instantiated():
    with pytest.raises(TypeError):
        LoadBalancer()
