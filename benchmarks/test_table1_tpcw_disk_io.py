"""Table 1: TPC-W average disk I/O per transaction for the Figure 3 policies.

Paper: LeastConnections 12/72 KB (write/read), LARD 12/57, MALB-SC 12/20;
the read fraction relative to LeastConnections falls to 0.28 for MALB-SC.
"""

import pytest

from benchmarks.conftest import run_all_cached
from repro.experiments.configs import figure3_configs
from repro.experiments.report import format_io_table


def test_table1_disk_io_per_transaction(benchmark, paper):
    configs = [c for c in figure3_configs() if c.policy != "Single"]
    results = benchmark.pedantic(lambda: run_all_cached(configs), rounds=1, iterations=1)
    print()
    print(format_io_table(results, paper_io=paper["table1"]["io_kb"],
                          title="Table 1 - TPC-W average disk I/O per transaction (KB)"))
    by_policy = {r.config.policy: r for r in results}
    # The memory-aware policy must read less per transaction than LeastConnections.
    assert by_policy["MALB-SC"].read_kb_per_txn < by_policy["LeastConnections"].read_kb_per_txn

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
