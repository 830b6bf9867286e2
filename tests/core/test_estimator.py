"""Tests for working-set estimation from plans and catalog metadata."""

import pytest

from repro.core.estimator import WorkingSetEstimator
from repro.storage.catalog import Catalog
from repro.storage.planner import QueryPlanner
from repro.workloads.tpcw import make_tpcw


@pytest.fixture
def tpcw_estimator():
    spec = make_tpcw(300)
    catalog = Catalog(schema=spec.schema)
    return spec, WorkingSetEstimator(catalog=catalog, planner=QueryPlanner(catalog=catalog))


def test_estimates_cover_all_types(tpcw_estimator):
    spec, estimator = tpcw_estimator
    estimates = estimator.estimate_all(spec.types)
    assert set(estimates) == set(spec.types)


def test_lookup_estimate_includes_index_and_table(tiny_catalog, tiny_planner, tiny_workload):
    estimator = WorkingSetEstimator(catalog=tiny_catalog, planner=tiny_planner)
    estimate = estimator.estimate(tiny_workload.type("Read"))
    assert "users" in estimate.relations
    assert "users_pkey" in estimate.relations


def test_order_display_upper_vs_lower_estimate(tpcw_estimator):
    """Section 5.3: OrderDisplay's lower estimate is tiny, its upper huge."""
    spec, estimator = tpcw_estimator
    estimate = estimator.estimate(spec.types["OrderDisplay"])
    lower_mb = estimate.scanned_bytes / 2**20
    upper_mb = estimate.total_bytes / 2**20
    assert lower_mb < 10
    assert upper_mb > 1000


def test_written_tables_recorded(tiny_catalog, tiny_planner, tiny_workload):
    estimator = WorkingSetEstimator(catalog=tiny_catalog, planner=tiny_planner)
    estimate = estimator.estimate(tiny_workload.type("Write"))
    assert "orders" in estimate.written
