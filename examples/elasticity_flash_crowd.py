#!/usr/bin/env python
"""Elasticity demo: a flash crowd hits a 4-replica TPC-W cluster.

The closed-loop client population quadruples for three minutes.  An
autoscaler watching the monitoring daemons grows the replica set (each
newcomer joins cold and replays the certifier log), a fault injector
crashes one replica at the height of the crowd and recovers it online, the
certifier leader fails over to a backup -- and when the crowd passes, the
cluster drains back down.  The run ends by checking that no certified
update was lost anywhere along the way.

Run with:  python examples/elasticity_flash_crowd.py
"""

from repro.experiments.elasticity import (
    CRASH_AT_S,
    SURGE_CLIENTS,
    SURGE_END_S,
    SURGE_START_S,
    flash_crowd_scenario,
    run_elastic_experiment,
    window_throughput,
)
from repro.experiments.report import format_series


def main() -> None:
    scenario = flash_crowd_scenario(autoscale=True, with_faults=True)
    print("flash crowd: %d clients -> %d during [%.0f, %.0f) s; one crash at %.0f s"
          % (scenario.base.num_replicas * scenario.base.clients_per_replica,
             SURGE_CLIENTS, SURGE_START_S, SURGE_END_S, CRASH_AT_S))
    result = run_elastic_experiment(scenario)

    print()
    print(format_series(result.run.metrics.moving_average_series(window_buckets=3),
                        title="Throughput over time (90 s moving average)", every=2))
    print()
    print("Scaling decisions:")
    for decision in result.scaling:
        print("  t=%6.0f  %-10s %d -> %d replicas  (load signal %.2f)"
              % (decision.time, decision.action, decision.replicas_before,
                 decision.replicas_after, decision.utilisation))
    print()
    print("Faults:")
    for record in result.faults:
        target = "replica %d" % record.replica_id if record.replica_id >= 0 else "certifier"
        print("  t=%6.0f  %-18s %-10s %s" % (record.time, record.kind, target, record.detail))
    print()
    print("Replicas: start %d, peak %d, final %d"
          % (result.start_replicas, result.peak_replicas, result.final_replicas))
    print("Surge-window throughput: %.1f tps (%.1f tps over the whole run)"
          % (result.surge_throughput_tps, result.throughput_tps))
    print("Post-scale-out window [180, 300): %.1f tps"
          % window_throughput(result.run, 180.0, 300.0))
    print("Certified updates lost: %d (log total order: %s)"
          % (result.lost_certified_updates, result.log_is_total_order))


if __name__ == "__main__":
    main()
