"""Section 5.3: estimated vs experimentally measured working sets.

The paper measures working sets by dedicating a transaction type to one
machine and shrinking memory until disk I/O spikes.  Key data points:
BestSellers' lower and upper estimates almost coincide (610 vs 608 MB) and
match the measured 600-650 MB; OrderDisplay's estimates diverge wildly
(1 MB vs 1600 MB) around a true working set of 400-450 MB.
"""

import pytest

import random

from repro.core.estimator import WorkingSetEstimator, measure_working_set
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.workloads.tpcw import make_tpcw


def _measure(spec, type_name):
    catalog = Catalog(schema=spec.schema)

    def factory(memory_bytes):
        return DatabaseEngine(catalog=catalog, buffer_pool=BufferPool(memory_bytes, skew=1.0),
                              rng=random.Random(7))

    candidates = [mb(s) for s in (64, 128, 192, 256, 320, 384, 448, 512, 640, 768, 1024, 1536, 2048)]
    return measure_working_set(factory, spec.types[type_name], candidates)


def test_section53_working_set_estimates_vs_measurement(benchmark, paper):
    spec = make_tpcw(300)
    catalog = Catalog(schema=spec.schema)
    estimator = WorkingSetEstimator(catalog=catalog, planner=QueryPlanner(catalog=catalog))

    def measure_all():
        rows = []
        for type_name in ("BestSellers", "OrderDisplay", "ShoppingCart", "ExecSearch"):
            estimate = estimator.estimate(spec.types[type_name])
            measured = _measure(spec, type_name)
            rows.append((type_name, estimate.scanned_bytes, estimate.total_bytes, measured))
        return rows

    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    print()
    print("Section 5.3 - working-set estimates vs experimental measurement (MB)")
    print("%-16s %14s %14s %14s" % ("type", "lower (SCAP)", "upper (SC)", "measured"))
    for name, lower, upper, measured in rows:
        print("%-16s %14.0f %14.0f %14.0f" % (name, lower / mb(1), upper / mb(1), measured / mb(1)))
    print("paper: BestSellers 610 / 608 / 600-650;  OrderDisplay 1 / 1600 / 400-450")

    by_name = {name: (lower, upper, measured) for name, lower, upper, measured in rows}
    lower, upper, measured = by_name["OrderDisplay"]
    # The qualitative relationship of Section 5.3: lower << measured << upper.
    assert lower < measured < upper
    assert upper / mb(1) > 1000
    assert lower / mb(1) < 16

#: paper-scale measurement harness -- runs minutes of simulated
#: experiments, so it is excluded from the fast tier-1 suite.
pytestmark = pytest.mark.slow
