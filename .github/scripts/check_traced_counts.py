"""Check a traced benchmark run's work counts against its baseline.

    python3 .github/scripts/check_traced_counts.py corpus-cold

Run from the repository root after

    python3 benchmarks/perf/run.py --workload WORKLOAD --seed 0 --trace 1 \\
        > benchmarks/out/WORKLOAD-traced.jsonl

It compares the first line's metrics with
``benchmarks/perf/baseline/WORKLOAD-s0-traced.json`` and exits non-zero
unless every count below is equal: an interpreter, tracer, decoder or
pipeline change must execute the same program and read the same
evidence, so its traced work counts cannot move.
"""

from __future__ import annotations

import json
import sys

COMMON = [
    "sim.executions",
    "sim.instructions",
    "pt.packets_*",
    "pt.decode_calls",
    "runtime.requests",
    "runtime.samples",
    "core.patterns_generated",
    "core.candidates_explored",
]

# evidence-replay collects nothing, so it takes no snapshots.  The
# fleet's cache.* and store.* counts are left out until its baseline is
# recorded again.  The committed baseline dates from when a decode pool
# raced the stop rule's evaluations for each buffer, so those counts
# varied from run to run.  Under a stop rule, as the fleet workload runs,
# no pool starts now, and the counts repeated in three seed-0 traced
# runs: 910 trace-cache hits and 910 misses, 1,389 store reads and
# 1,121 store writes.
COUNTS = {
    "corpus-cold": [*COMMON, "pt.snapshot_bytes"],
    "evidence-replay": COMMON,
    "fleet": [
        *COMMON,
        "pt.snapshot_bytes",
        "fleet.trace_requests",
        "fleet.batch_frames",
        "fleet.jobs_deduplicated",
    ],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in COUNTS:
        print(f"usage: check_traced_counts.py {{{','.join(COUNTS)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    with open(f"benchmarks/perf/baseline/{workload}-s0-traced.json") as f:
        want = json.load(f)["metrics"]
    with open(f"benchmarks/out/{workload}-traced.jsonl") as f:
        got = json.loads(f.readline())["metrics"]
    counts = []
    for name in COUNTS[workload]:
        if name.endswith("*"):
            counts += sorted(k for k in want if k.startswith(name[:-1]))
        else:
            counts.append(name)
    diff = {
        k: (want[k]["value"], got[k]["value"])
        for k in counts
        if want[k]["value"] != got[k]["value"]
    }
    if diff:
        print(f"traced counts differ from the baseline (want, got): {diff}")
        return 1
    print(f"ok: {len(counts)} traced {workload} counts equal the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
