"""Golden-value determinism regression for the simulation core.

The hot-path optimisations (indexed certification, O(1) buffer-pool
accounting, the slim event loop, streaming metrics, batched writeset
application) were verified to preserve seeded-run behaviour: every discrete
outcome -- completions, certification decisions, aborts, event counts,
per-type/per-replica breakdowns, the throughput time series -- is identical
to the pre-optimisation code on these scenarios, and the averaged float
metrics agree to within ~1e-12 relative (re-associated float summation in
the batched background-work charging).

This test freezes that behaviour: it runs the two golden scenarios and
compares against ``golden_seeded_metrics.json``.  Any future change to the
simulate-execute-certify-propagate loop that alters seeded results must
either be a bug or a deliberate semantic change -- in the latter case
regenerate the goldens with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/sim/test_determinism_golden.py

Integer fields are compared exactly.  Float fields are compared at 1e-9
relative tolerance: seeded draws are version-independent (the samplers
inline their formulas rather than relying on stdlib internals that changed
across Python releases), but ``x ** skew`` in the buffer pool goes through
libm's ``pow``, which may differ in the last ulp between C libraries.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.configs import golden_midsize_config, golden_update_filtering_config
from repro.experiments.runner import build_cluster
from repro.net.invariants import ConsistencyChecker

from tests.conftest import count_completions, update_fraction

GOLDEN_PATH = Path(__file__).with_name("golden_seeded_metrics.json")

INT_FIELDS = (
    "completed", "updates_completed", "aborts", "events_processed",
    "certifier_requests", "certifier_commits", "certifier_aborts",
    "certifier_notifications",
)
FLOAT_FIELDS = (
    "throughput_tps", "average_response_time", "update_fraction",
    "read_kb_per_txn", "write_kb_per_txn",
)


def _fingerprint(config, arm=None):
    """Run ``config`` and fingerprint the outcome; ``arm(cluster)``, if
    given, runs between building the cluster and running it."""
    cluster = build_cluster(config)
    completions = count_completions(cluster)
    if arm is not None:
        arm(cluster)
    result = cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
    metrics = result.metrics
    return {
        "completed": metrics.completed,
        "updates_completed": metrics.updates_completed,
        "aborts": metrics.aborts,
        "events_processed": cluster.sim.events_processed,
        "certifier_requests": cluster.certifier.stats.requests,
        "certifier_commits": cluster.certifier.stats.commits,
        "certifier_aborts": cluster.certifier.stats.aborts,
        "certifier_notifications": cluster.certifier.stats.notifications_sent,
        "completions_by_type": dict(sorted(completions.by_type.items())),
        "completions_by_replica": {str(rid): count for rid, count
                                   in sorted(completions.by_replica.items())},
        "throughput_tps": metrics.throughput_tps(),
        "average_response_time": metrics.average_response_time(),
        "update_fraction": update_fraction(metrics),
        "read_kb_per_txn": metrics.read_kb_per_transaction(),
        "write_kb_per_txn": metrics.write_kb_per_transaction(),
        "throughput_series": [point.throughput_tps
                              for point in metrics.throughput_series()],
    }


def _configs():
    return [golden_midsize_config(), golden_update_filtering_config()]


def test_seeded_metrics_match_goldens():
    fingerprints = {config.name: _fingerprint(config) for config in _configs()}

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden file regenerated at %s" % GOLDEN_PATH)

    assert GOLDEN_PATH.exists(), \
        "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    goldens = json.loads(GOLDEN_PATH.read_text())

    for name, measured in fingerprints.items():
        _assert_matches_golden(name, measured, goldens[name])


def _assert_matches_golden(name, measured, golden):
    for field in INT_FIELDS:
        assert measured[field] == golden[field], \
            "%s.%s drifted: %r != golden %r" % (name, field, measured[field], golden[field])
    assert measured["completions_by_type"] == golden["completions_by_type"], name
    assert measured["completions_by_replica"] == golden["completions_by_replica"], name
    for field in FLOAT_FIELDS:
        assert measured[field] == pytest.approx(golden[field], rel=1e-9), \
            "%s.%s drifted" % (name, field)
    assert measured["throughput_series"] == \
        pytest.approx(golden["throughput_series"], rel=1e-9), name


def test_back_to_back_runs_are_identical():
    """The simulator is deterministic within one process: two builds of the
    same seeded scenario produce byte-identical fingerprints."""
    config = golden_midsize_config()
    assert _fingerprint(config) == _fingerprint(config)


def _assert_gsi_invariants_hold_with_ledgers_armed(config):
    """A standing invariant check on a fault-free run: the GSI audit passes
    mid-flight (the run ends with transactions in flight), and arming the
    apply ledgers leaves the seeded behaviour untouched."""
    checkers = []
    measured = _fingerprint(config, arm=lambda c: checkers.append(ConsistencyChecker(c)))
    report = checkers[0].check(expect_quiesced=False)
    assert report.ok, report.summary()
    assert report.checked["log_entries"] > 0
    assert report.checked["ledger_entries"] > 0
    goldens = json.loads(GOLDEN_PATH.read_text())
    _assert_matches_golden(config.name, measured, goldens[config.name])


def test_golden_mid_holds_gsi_invariants_with_ledgers_armed():
    _assert_gsi_invariants_hold_with_ledgers_armed(golden_midsize_config())


def test_golden_uf_holds_gsi_invariants_with_ledgers_armed():
    """The update-filtering golden: the run where filtered apply meets
    own-origin skipping, which keys off the origin ``execute`` stamps."""
    _assert_gsi_invariants_hold_with_ledgers_armed(golden_update_filtering_config())
