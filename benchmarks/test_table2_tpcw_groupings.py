"""Table 2: the transaction groups MALB-SC settles on for TPC-W ordering.

The paper's groupings (with replicas): [BestSellers]=2, [AdminConfirm]=4,
[BuyConfirm]=7, [BuyRequest, ShoppingCart]=1, [ExecSearch, OrderDisplay,
OrderInquiry, ProductDetail]=1, [Home, NewProducts, SearchRequest,
AdminRequest]=1.
"""

import pytest

from benchmarks.conftest import run_cached
from repro.experiments.configs import figure3_configs
from repro.experiments.report import format_grouping_table


def test_table2_malb_sc_groupings(benchmark, paper):
    config = [c for c in figure3_configs() if c.policy == "MALB-SC"][0]
    result = benchmark.pedantic(lambda: run_cached(config), rounds=1, iterations=1)
    print()
    print(format_grouping_table(result.groupings, result.replica_counts,
                                paper_groupings=paper["table2"]["groupings"],
                                title="Table 2 - TPC-W MALB-SC groupings (measured vs paper)"))
    # Structural checks: every type grouped exactly once; all replicas used;
    # the heavy scan types are isolated from the light browsing types.
    all_types = [t for types in result.groupings.values() for t in types]
    assert len(all_types) == 14 and len(set(all_types)) == 14
    assert sum(result.replica_counts.values()) >= 16
    groups_of = {t: gid for gid, types in result.groupings.items() for t in types}
    assert groups_of["BestSellers"] != groups_of["SearchRequest"]

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
