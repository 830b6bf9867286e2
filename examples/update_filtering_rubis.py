#!/usr/bin/env python
"""Update filtering on RUBiS: what each replica stops applying.

Runs the RUBiS bidding mix under MALB-SC with update filtering enabled and
then reports, per replica, how many remote writesets it applied, how much
background write-back that cost it after warm-up, and which tables it keeps
up to date and which it skips -- the mechanism behind Figure 8 and
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
    all_tables = sorted(relation.name for relation in cluster.catalog().tables())
    background = cluster.metrics.background_write_bytes
    print("%-8s %10s %12s   %s" % ("replica", "applied", "bg write KB",
                                    "tables kept up to date | skipped"))
    for replica_id, replica in sorted(cluster.replicas.items()):
        kept = replica.filter_tables
        if kept is None:
            label = "ALL (filtering not active)"
        else:
            skipped = [name for name in all_tables if name not in kept]
            label = "%s | %s" % (", ".join(sorted(kept)), ", ".join(skipped) or "-")
        print("%-8d %10d %12.0f   %s" % (replica_id, replica.writesets_applied,
                                         background.get(replica_id, 0.0) / 1024.0,
                                         label))


if __name__ == "__main__":
    main()
