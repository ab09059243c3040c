"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/perf/compare.py --base parent/*.json --change pr/*.json

Each file holds one run's full result, as ``run.py --out`` writes it.
Run the two sides in alternating order, the same seeds on both sides;
runs are paired by seed, and in the order given within a seed.

For every workload and metric the comparison prints each side's median
and quartiles, the change's win fraction over the pairs (ties count for
neither side), and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``improved``  — there are at least 10 pairs, the change failed no more
  operations in total than the base, it wins at least 9/10 of the pairs,
  and the medians differ by more than the base runs' own quartile spread;
* ``unresolved`` — the base runs spread wider than the bound, and the
  change's runs are neither all better nor all worse than every base run;
* ``regressed`` — the change's median is worse by more than the bound;
* ``no worse``  — otherwise.

Metrics ``BENCHMARK.json`` gives no bound (the latency percentiles and
the throughput of the full result, the per-layer metrics) get
``improved`` or ``-``.
Results from machines with different fingerprints, or with different
seeds on the two sides, are refused.  The exit code is 1 when any metric
regressed or any workload failed more operations in total than at the
base, 2 when the inputs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from summary import quartiles

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_FRACTION = 0.9
MIN_PAIRS = 10


class IncomparableError(Exception):
    pass


def load_result(path: Path) -> dict:
    try:
        result = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise IncomparableError(f"{path}: not a result file ({exc})") from None
    if "workload" not in result:
        raise IncomparableError(f"{path}: not a result file")
    return result


def verdict(
    base: list[float], change: list[float], better: str, bound, may_improve: bool
) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse = sign * (c_med - b_med) / b_med if b_med else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if (
        may_improve
        and win_fraction >= WIN_FRACTION
        and worse < 0
        and abs(c_med - b_med) > b_q3 - b_q1
    ):
        label = "improved"
    elif bound is None:
        label = "-"
    elif b_med and (b_q3 - b_q1) / abs(b_med) > bound and not (all_better or all_worse):
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "no worse"
    return {
        "base": (b_q1, b_med, b_q3),
        "change": (c_q1, c_med, c_q3),
        "worse_by": worse,
        "win_fraction": win_fraction,
        "verdict": label,
    }


def compare(base: list[dict], change: list[dict], benchmark: dict) -> dict:
    """workload -> {"metrics": {name: verdict}, "failed": (base, change),
    "runs": pairs, "may_improve": bool}; ``failed`` is the total number
    of failed operations over each side's runs."""
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + change}
    if len(prints) > 1:
        raise IncomparableError(
            "results come from different machines:\n  " + "\n  ".join(sorted(prints))
        )
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    out = {}
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        b_runs = sorted((r for r in base if r["workload"] == workload), key=_seed)
        c_runs = sorted((r for r in change if r["workload"] == workload), key=_seed)
        if [_seed(r) for r in b_runs] != [_seed(r) for r in c_runs]:
            raise IncomparableError(
                f"{workload}: the two sides ran different seeds: "
                f"{[_seed(r) for r in b_runs]} vs {[_seed(r) for r in c_runs]}"
            )
        if {r["trace"] for r in b_runs + c_runs} != {b_runs[0]["trace"]}:
            raise IncomparableError(f"{workload}: traced and untraced runs mixed")
        failed = (sum(r["failed"] for r in b_runs), sum(r["failed"] for r in c_runs))
        # a gain needs ten pairs, and does not count when more operations fail
        may_improve = len(b_runs) >= MIN_PAIRS and failed[1] <= failed[0]
        names = set.intersection(*(set(r["metrics"]) for r in b_runs + c_runs))
        metrics = {}
        for name in sorted(names):
            # metrics only the full result carries are latencies, and the
            # throughput, a rate
            unit = b_runs[0]["metrics"][name]["unit"]
            spec = declared.get(name, {"better": "higher" if unit == "1/s" else "lower"})
            metrics[name] = verdict(
                [r["metrics"][name]["value"] for r in b_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                spec["better"],
                spec.get("bound"),
                may_improve,
            )
            metrics[name]["unit"] = unit
        out[workload] = {
            "metrics": metrics,
            "failed": failed,
            "runs": len(b_runs),
            "may_improve": may_improve,
        }
    return out


def _seed(result: dict) -> int:
    return result["seed"]


def render(report: dict) -> str:
    lines = []
    for workload, entry in report.items():
        lines.append(
            f"== {workload}  ({entry['runs']} pairs; failed operations "
            f"{entry['failed'][0]} vs {entry['failed'][1]})"
        )
        if not entry["may_improve"]:
            lines.append(
                f"  no metric can be called improved: fewer than {MIN_PAIRS} "
                "pairs, or more failed operations than the base"
            )
        lines.append(
            f"  {'metric':<30} {'base q1/med/q3':>32} {'change q1/med/q3':>32}"
            f" {'worse':>8} {'wins':>5}  verdict"
        )
        for name, v in entry["metrics"].items():
            fmt = lambda t: "/".join(f"{x:.4g}" for x in t)  # noqa: E731
            lines.append(
                f"  {name + ' [' + v['unit'] + ']':<30} {fmt(v['base']):>32}"
                f" {fmt(v['change']):>32} {v['worse_by']:>+8.1%}"
                f" {v['win_fraction']:>5.0%}  {v['verdict']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    try:
        report = compare(
            [load_result(p) for p in args.base],
            [load_result(p) for p in args.change],
            benchmark,
        )
    except IncomparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(report))
    regressed = any(
        v["verdict"] == "regressed"
        for entry in report.values()
        for v in entry["metrics"].values()
    )
    more_failed = any(e["failed"][1] > e["failed"][0] for e in report.values())
    return 1 if regressed or more_failed else 0


if __name__ == "__main__":
    sys.exit(main())
