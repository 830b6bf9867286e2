#!/usr/bin/env python
"""Update filtering on RUBiS: what each replica stops applying.

Runs the RUBiS bidding mix under MALB-SC with update filtering enabled and
then reports, per replica, which tables it keeps up to date and how many
remote writesets its proxy filtered -- the mechanism behind Figure 8 and
Section 5.5 of the paper.

Run with:  python examples/update_filtering_rubis.py
"""

from repro.experiments.runner import ExperimentConfig, build_cluster


def main() -> None:
    config = ExperimentConfig(
        name="rubis-update-filtering",
        workload="rubis",
        mix="bidding",
        ram_mb=512,
        policy="MALB-SC+UF",
        duration_s=200.0,
        warmup_s=80.0,
    )
    cluster = build_cluster(config)
    result = cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)

    print("RUBiS bidding mix, 16 replicas, 512 MB each, MALB-SC + update filtering")
    print("throughput: %.1f tps, response time %.3f s" % (result.throughput_tps,
                                                           result.response_time_s))
    print("disk I/O per transaction: %.1f KB read, %.1f KB written"
          % (result.read_kb_per_txn, result.write_kb_per_txn))
    print()
    print("%-8s %10s %10s   %s" % ("replica", "applied", "filtered", "tables kept up to date"))
    for replica_id, replica in sorted(cluster.replicas.items()):
        tables = replica.filter_tables
        label = "ALL (filtering not active)" if tables is None else ", ".join(sorted(tables))
        print("%-8d %10d %10d   %s" % (replica_id, replica.writesets_applied,
                                       replica.writesets_filtered, label))


if __name__ == "__main__":
    main()
