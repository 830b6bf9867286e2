"""Figure 3: TPC-W ordering mix -- Single vs LeastConnections vs LARD vs MALB-SC.

Paper (MidDB 1.8 GB, 512 MB RAM, 16 replicas): 3 / 37 / 50 / 76 tps.
"""

import pytest

from benchmarks.conftest import run_all_cached
from repro.experiments.configs import figure3_configs
from repro.experiments.report import format_result_table, shape_check


def test_figure3_tpcw_method_comparison(benchmark, paper):
    results = benchmark.pedantic(
        lambda: run_all_cached(figure3_configs()), rounds=1, iterations=1)
    print()
    print(format_result_table(results, paper_tps=paper["figure3"]["throughput_tps"],
                              title="Figure 3 - TPC-W ordering, MidDB, 512 MB, 16 replicas"))
    problems = shape_check(results, ["Single", "LeastConnections", "MALB-SC"])
    print("shape check (Single <= LeastConnections <= MALB-SC):",
          "OK" if not problems else "; ".join(problems))
    # Robust assertions only: the cluster must far outperform the standalone
    # database, and every policy must complete work.
    by_policy = {r.config.policy: r.throughput_tps for r in results}
    assert all(tps > 0 for tps in by_policy.values())
    assert by_policy["LeastConnections"] > 2 * by_policy["Single"]
    assert by_policy["MALB-SC"] > 2 * by_policy["Single"]

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
