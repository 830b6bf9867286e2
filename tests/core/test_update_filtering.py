"""Tests for update filtering plans and availability constraints."""

import pytest

from repro.core.estimator import WorkingSetEstimator
from repro.core.grouping import GroupingMethod, build_groups
from repro.core import update_filtering
from repro.core.update_filtering import compute_filter_plan, tables_used_by_types
from repro.storage.catalog import Catalog
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.workloads.tpcw import make_tpcw

from tests.conftest import verify_availability


def filtered_fraction(plan, all_tables):
    """Average fraction of tables filtered per replica (0 = no filtering)."""
    if not plan.tables_per_replica or not all_tables:
        return 0.0
    total = 0.0
    for tables in plan.tables_per_replica.values():
        total += 1.0 - len(tables.intersection(all_tables)) / len(all_tables)
    return total / len(plan.tables_per_replica)


@pytest.fixture(scope="module")
def tpcw_setup():
    spec = make_tpcw(300)
    catalog = Catalog(schema=spec.schema)
    estimator = WorkingSetEstimator(catalog=catalog, planner=QueryPlanner(catalog=catalog))
    estimates = estimator.estimate_all(spec.types)
    groups = build_groups(estimates, mb(442), method=GroupingMethod.MALB_SC)
    return spec, catalog, estimates, groups


def simple_assignment(groups, replicas=16):
    assignment = {}
    rid = 0
    per_group = max(1, replicas // len(groups))
    for g in groups:
        assignment[g.group_id] = [ (rid + i) % replicas for i in range(per_group) ]
        rid += per_group
    return assignment


def test_tables_used_excludes_indices(tpcw_setup):
    spec, catalog, estimates, groups = tpcw_setup
    tables = tables_used_by_types(["BuyConfirm"], estimates, catalog)
    assert "orders" in tables and "customer" in tables
    assert not any(name.endswith("_idx") or name.endswith("_pkey") for name in tables)


def test_filter_plan_covers_assigned_groups(tpcw_setup):
    spec, catalog, estimates, groups = tpcw_setup
    assignment = simple_assignment(groups)
    plan = compute_filter_plan(groups, assignment, estimates, catalog)
    for group in groups:
        tables = tables_used_by_types(group.type_names, estimates, catalog)
        for rid in assignment[group.group_id]:
            assert tables <= plan.tables_for(rid)


def test_filter_plan_meets_availability(tpcw_setup):
    spec, catalog, estimates, groups = tpcw_setup
    # Give every group only a single primary replica; the plan must add standbys.
    assignment = {g.group_id: [i] for i, g in enumerate(groups)}
    plan = compute_filter_plan(groups, assignment, estimates, catalog)
    assert verify_availability(plan, min_copies=2) == []
    for type_name, replicas in plan.type_copies.items():
        assert len(replicas) >= 2


def test_filtering_actually_filters_something(tpcw_setup):
    spec, catalog, estimates, groups = tpcw_setup
    assignment = simple_assignment(groups)
    plan = compute_filter_plan(groups, assignment, estimates, catalog)
    all_tables = [t.name for t in catalog.tables()]
    assert filtered_fraction(plan, all_tables) > 0.0


def test_verify_availability_reports_violations(tpcw_setup, monkeypatch):
    spec, catalog, estimates, groups = tpcw_setup
    # Two replicas exist but every group has only a single copy.
    monkeypatch.setattr(update_filtering, "MIN_COPIES", 1)
    assignment = {g.group_id: [i % 2] for i, g in enumerate(groups)}
    plan = compute_filter_plan(groups, assignment, estimates, catalog)
    # With min_copies=2 requested at verification time, single copies violate.
    problems = verify_availability(plan, min_copies=2)
    assert problems
