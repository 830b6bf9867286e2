"""Flash-crowd elasticity scenario, end to end.

The acceptance scenario for the elasticity subsystem: a TPC-W cluster
starts at 4 replicas; a flash crowd quadruples the client population; the
autoscaler grows the replica set and shrinks it back when the crowd passes;
one injected crash is recovered online from the certifier log; and the run
must finish with zero lost certified updates and a post-scale-out
throughput improvement over the static 4-replica baseline.

The two runs (elastic and static) are simulated once per session and
shared by all assertions.
"""

import pytest

from repro.experiments.elasticity import (
    SURGE_END_S,
    SURGE_START_S,
    ElasticityResult,
    flash_crowd_scenario,
    run_elastic_experiment,
    window_throughput,
)

#: window after the scale-out completes and before the crowd departs.
POST_SCALE_WINDOW = (180.0, 300.0)


@pytest.fixture(scope="module")
def elastic() -> ElasticityResult:
    return run_elastic_experiment(flash_crowd_scenario(autoscale=True, with_faults=True))


@pytest.fixture(scope="module")
def static() -> ElasticityResult:
    return run_elastic_experiment(flash_crowd_scenario(autoscale=False, with_faults=False))


def test_autoscaler_grows_under_the_crowd(elastic):
    assert elastic.start_replicas == 4
    assert elastic.peak_replicas > elastic.start_replicas
    assert elastic.scale_ups, "the autoscaler never scaled up"
    first_up = min(d.time for d in elastic.scale_ups)
    assert first_up >= SURGE_START_S, \
        "scaled up before the crowd arrived (baseline mis-tuned)"


def test_autoscaler_shrinks_back_after_the_crowd(elastic):
    assert elastic.scale_downs, "the autoscaler never scaled down"
    post_surge_downs = [d for d in elastic.scale_downs
                        if d.time >= SURGE_END_S]
    assert post_surge_downs, "no scale-down after the crowd departed"
    assert elastic.final_replicas < elastic.peak_replicas


def test_injected_crash_is_recovered_online(elastic):
    crashes = [r for r in elastic.faults if r.kind == "crash"]
    restarts = [r for r in elastic.faults if r.kind == "restart"]
    assert len(crashes) == 1
    assert len(restarts) == 1
    assert "replayed" in restarts[0].detail
    replayed = int(restarts[0].detail.split()[1])
    assert replayed > 0, "the crashed replica missed no writesets -- scenario too idle"


def test_certifier_failed_over_mid_run(elastic):
    failovers = [r for r in elastic.faults if r.kind == "certifier-failover"]
    assert len(failovers) == 1


def test_zero_certified_updates_lost(elastic):
    assert elastic.lost_certified_updates == 0
    assert elastic.log_is_total_order


def test_membership_churn_is_audited(elastic):
    kinds = {event.kind for event in elastic.membership_events}
    # joins from scaling, a crash and its restore from the injector, and
    # retirements from the scale-downs.
    assert {"join", "crash", "restore", "retired"} <= kinds


def test_scale_out_beats_the_static_baseline(elastic, static):
    start, end = POST_SCALE_WINDOW
    elastic_tps = window_throughput(elastic.run, start, end)
    static_tps = window_throughput(static.run, start, end)
    assert static_tps > 0
    assert elastic_tps > 1.05 * static_tps, \
        "scale-out gave no throughput benefit (%.1f vs %.1f tps)" % (elastic_tps, static_tps)


def test_static_baseline_never_changed_size(static):
    assert static.start_replicas == static.peak_replicas == static.final_replicas == 4
    assert not static.scaling
    assert static.lost_certified_updates == 0
