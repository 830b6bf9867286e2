"""Golden-value regression for runs whose replica set churns.

The determinism goldens (``tests/sim/test_determinism_golden.py``) and the
routing fingerprints run a fixed replica set.  This test pins the two
seeded scenarios that exercise the replica lifecycle instead: joins,
graceful drains, crashes, online restores and certifier fail-overs.

* the quick chaos campaign at severity 1.0, seed 1 -- its whole
  :func:`~repro.experiments.chaos.audit_payload`;
* the flash crowd with autoscaling and faults -- event and completion
  counts, peak and final replica counts, the membership audit trail, the
  fault records and the abort taxonomy.

A deliberate behaviour change regenerates the file with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/elasticity/test_churn_golden.py

Integers and strings are compared exactly, floats at 1e-9 relative
tolerance (the same rule as the determinism goldens).
"""

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.chaos import audit_payload, chaos_soak_config, run_chaos
from repro.experiments.elasticity import flash_crowd_scenario, run_elastic_experiment

GOLDEN_PATH = Path(__file__).with_name("golden_churn.json")


def _chaos_fingerprint():
    config = chaos_soak_config(severity=1.0, seed=1, duration_s=120.0)
    return audit_payload(run_chaos(config))


def _flash_crowd_fingerprint():
    result = run_elastic_experiment(
        flash_crowd_scenario(autoscale=True, with_faults=True))
    metrics = result.run.metrics
    return {
        "events_processed": result.events_processed,
        "completed": metrics.completed,
        "updates_completed": metrics.updates_completed,
        "aborts": metrics.aborts,
        "peak_replicas": result.peak_replicas,
        "final_replicas": result.final_replicas,
        "membership_events": [asdict(event) for event in result.membership_events],
        "faults": [asdict(record) for record in result.faults],
        "abort_reasons": dict(sorted(metrics.abort_reasons.items())),
    }


def _assert_matches(path, measured, golden):
    if isinstance(golden, dict):
        assert isinstance(measured, dict), path
        assert sorted(measured) == sorted(golden), "%s keys drifted" % path
        for key in golden:
            _assert_matches("%s.%s" % (path, key), measured[key], golden[key])
    elif isinstance(golden, list):
        assert isinstance(measured, list), path
        assert len(measured) == len(golden), "%s length drifted" % path
        for index, (m, g) in enumerate(zip(measured, golden)):
            _assert_matches("%s[%d]" % (path, index), m, g)
    elif isinstance(golden, float):
        assert measured == pytest.approx(golden, rel=1e-9), \
            "%s drifted: %r != golden %r" % (path, measured, golden)
    else:
        assert measured == golden, \
            "%s drifted: %r != golden %r" % (path, measured, golden)


def test_churn_runs_match_goldens():
    # JSON round trip: tuples become lists and int keys strings, as in the file.
    fingerprints = json.loads(json.dumps({
        "chaos-quick-severity-1.0-seed-1": _chaos_fingerprint(),
        "flash-crowd-autoscale-faults": _flash_crowd_fingerprint(),
    }))

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden file regenerated at %s" % GOLDEN_PATH)

    assert GOLDEN_PATH.exists(), \
        "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert sorted(fingerprints) == sorted(goldens)
    for name, measured in fingerprints.items():
        _assert_matches(name, measured, goldens[name])
