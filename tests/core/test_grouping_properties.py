"""Property-based tests on grouping invariants, independent of TPC-W."""

from hypothesis import given, settings, strategies as st

from repro.core.grouping import GroupingMethod, build_groups, group_of_type
from repro.core.working_set import WorkingSetEstimate


@st.composite
def estimate_sets(draw):
    relations = ["r%d" % i for i in range(8)]
    sizes = {r: draw(st.integers(min_value=1, max_value=120)) for r in relations}
    n_types = draw(st.integers(min_value=1, max_value=12))
    estimates = {}
    for i in range(n_types):
        used = draw(st.lists(st.sampled_from(relations), min_size=1, max_size=5, unique=True))
        scanned = draw(st.lists(st.sampled_from(used), max_size=len(used), unique=True))
        estimates["T%d" % i] = WorkingSetEstimate(
            transaction_type="T%d" % i,
            relation_bytes={r: sizes[r] for r in used},
            scanned=frozenset(scanned))
    capacity = draw(st.integers(min_value=60, max_value=400))
    return estimates, capacity


@settings(max_examples=80, deadline=None)
@given(estimate_sets())
def test_every_type_grouped_exactly_once(inputs):
    estimates, capacity = inputs
    for method in GroupingMethod:
        groups = build_groups(estimates, capacity, method=method)
        mapping = group_of_type(groups)
        assert set(mapping) == set(estimates)


@settings(max_examples=80, deadline=None)
@given(estimate_sets())
def test_overflow_groups_are_singletons_and_others_fit(inputs):
    estimates, capacity = inputs
    groups = build_groups(estimates, capacity, method=GroupingMethod.MALB_SC)
    for group in groups:
        if group.overflow:
            assert len(group.type_names) == 1
        else:
            assert group.estimated_bytes <= capacity


@settings(max_examples=50, deadline=None)
@given(estimate_sets())
def test_group_relations_cover_member_estimates(inputs):
    estimates, capacity = inputs
    groups = build_groups(estimates, capacity, method=GroupingMethod.MALB_SC)
    for group in groups:
        for type_name in group.type_names:
            assert set(estimates[type_name].relation_bytes) <= set(group.relation_bytes)
