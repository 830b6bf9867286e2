"""Section 5.3 ablation: merging of under-utilised transaction groups.

Paper: disabling merging drops MALB-S from 73 to 66 tps and MALB-SC from 76
to 70 tps -- merging compensates for having many groups, some with
infrequent requests.
"""

import pytest

import dataclasses

from benchmarks.conftest import run_cached
from repro.experiments.configs import figure3_configs


def test_section53_merging_ablation(benchmark, paper):
    base = [c for c in figure3_configs() if c.policy == "MALB-SC"][0]
    with_merging = base
    without_merging = dataclasses.replace(base, name="figure5-no-merging", malb_merging=False)

    def run_both():
        return run_cached(with_merging), run_cached(without_merging)

    merged, unmerged = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print("Section 5.3 - merging ablation (MALB-SC, TPC-W ordering, MidDB, 512 MB)")
    print("  with merging:    %7.1f tps   (paper: 76)" % merged.throughput_tps)
    print("  without merging: %7.1f tps   (paper: 70)" % unmerged.throughput_tps)
    assert merged.throughput_tps > 0 and unmerged.throughput_tps > 0
    # Merging must never make things drastically worse.
    assert merged.throughput_tps >= 0.8 * unmerged.throughput_tps

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
