"""Regenerate reference.json: every workload's fingerprint at every seed.

    python3 perfbench/record.py

The fingerprints pin the simulated behaviour the benchmark checks on every
run.  Re-record them only for a deliberate fidelity change, and say so in
the change that does it.  fig6-dynamic at seed 1 must still match the
ROADMAP's specification; recording refuses to write otherwise.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

from run import use_checkout_src


def _fingerprint(task):
    from workloads import WORKLOADS, simulate
    name, seed = task
    return name, seed, simulate(WORKLOADS[name](seed))


def main() -> int:
    use_checkout_src()
    from workloads import REFERENCE_PATH, SIM_SEEDS, WORKLOADS, output_problems

    tasks = [(name, seed) for name in WORKLOADS for seed in SIM_SEEDS]
    fingerprints = {name: {} for name in WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for name, seed, fp in pool.imap_unordered(_fingerprint, tasks):
            fingerprints[name][str(seed)] = fp
            print(name, seed, fp, flush=True)
    fingerprints = {name: dict(sorted(fps.items(), key=lambda kv: int(kv[0])))
                    for name, fps in fingerprints.items()}
    problems = output_problems("fig6-dynamic", 1, fingerprints["fig6-dynamic"]["1"],
                               fingerprints)
    if problems:
        print("refusing to record:", "; ".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"sim_seeds": list(SIM_SEEDS), "fingerprints": fingerprints},
                  handle, indent=1)
        handle.write("\n")
    print("wrote", REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
