"""Figure 4: RUBiS bidding mix -- Single vs LeastConnections vs LARD vs MALB-SC.

Paper (2.2 GB DB, 512 MB RAM, 16 replicas): 3 / 31 / 34 / 43 tps.
"""

import pytest

from benchmarks.conftest import run_all_cached
from repro.experiments.configs import figure4_configs
from repro.experiments.report import format_result_table, shape_check


def test_figure4_rubis_method_comparison(benchmark, paper):
    results = benchmark.pedantic(
        lambda: run_all_cached(figure4_configs()), rounds=1, iterations=1)
    print()
    print(format_result_table(results, paper_tps=paper["figure4"]["throughput_tps"],
                              title="Figure 4 - RUBiS bidding, 2.2 GB, 512 MB, 16 replicas"))
    problems = shape_check(results, ["Single", "LeastConnections", "MALB-SC"])
    print("shape check (Single <= LeastConnections <= MALB-SC):",
          "OK" if not problems else "; ".join(problems))
    by_policy = {r.config.policy: r.throughput_tps for r in results}
    assert by_policy["LeastConnections"] > 2 * by_policy["Single"]

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
