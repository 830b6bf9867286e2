"""Tests for transaction-group construction (MALB-S / MALB-SC / MALB-SCAP)."""

import pytest

from repro.core.estimator import WorkingSetEstimator
from repro.core.grouping import GroupingMethod, build_groups, group_of_type
from repro.storage.catalog import Catalog
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.workloads.tpcw import make_tpcw


@pytest.fixture(scope="module")
def tpcw_estimates():
    spec = make_tpcw(300)
    catalog = Catalog(schema=spec.schema)
    estimator = WorkingSetEstimator(catalog=catalog, planner=QueryPlanner(catalog=catalog))
    return estimator.estimate_all(spec.types)


def test_every_type_is_in_exactly_one_group(tpcw_estimates):
    for method in GroupingMethod:
        groups = build_groups(tpcw_estimates, mb(442), method=method)
        mapping = group_of_type(groups)
        assert set(mapping) == set(tpcw_estimates)


def test_sc_produces_no_more_groups_than_s(tpcw_estimates):
    s_groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_S)
    sc_groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    assert len(sc_groups) <= len(s_groups)


def test_scap_produces_fewest_groups(tpcw_estimates):
    sc_groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    scap_groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SCAP)
    assert len(scap_groups) <= len(sc_groups)


def test_overflow_types_are_isolated(tpcw_estimates):
    groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    for group in groups:
        if group.overflow:
            assert len(group.type_names) == 1


def test_non_overflow_groups_fit_in_memory(tpcw_estimates):
    memory = mb(442)
    groups = build_groups(tpcw_estimates, memory, method=GroupingMethod.MALB_SC)
    for group in groups:
        if not group.overflow:
            assert sum(group.relation_bytes.values()) <= memory * 1.001 or len(group.type_names) == 1


def test_more_memory_means_fewer_groups(tpcw_estimates):
    small = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    large = build_groups(tpcw_estimates, mb(954), method=GroupingMethod.MALB_SC)
    assert len(large) <= len(small)


def test_invalid_inputs(tpcw_estimates):
    with pytest.raises(ValueError):
        build_groups(tpcw_estimates, 0)
    assert build_groups({}, mb(10)) == []


def test_duplicate_type_in_groups_detected(tpcw_estimates):
    groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    groups.append(groups[0])
    with pytest.raises(ValueError):
        group_of_type(groups)


def test_group_describe_mentions_types(tpcw_estimates):
    groups = build_groups(tpcw_estimates, mb(442), method=GroupingMethod.MALB_SC)
    text = groups[0].describe()
    assert groups[0].group_id in text
