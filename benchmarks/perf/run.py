"""Run one benchmark workload and print its result.

    python3 benchmarks/perf/run.py --workload corpus-cold --seed 0
    python3 benchmarks/perf/run.py --workload fleet --seed 1 --trace 1

Run from the repository root; ``src/`` is put on the path here.  The
output is one JSON object per line: first the full result (every metric
with its unit and sample count, the machine fingerprint, and one
outcome per diagnosis), then, as the last line, the summary
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``, the separate traced run, which also
writes its spans as JSONL).  Times are rescaled to a fixed machine
speed (see ``gauge.py``); the raw wall-clock values are in the full
result.  The exit code is non-zero when any diagnosis failed: raised,
timed out, or disagreed with the digest it must reproduce.  A diagnosis
that names another root cause than the corpus ground truth is counted
as ``inexact``, not failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def time_metrics(timings: dict[str, list[float]]) -> dict:
    """name -> (value, unit, samples) for one set of per-operation times."""
    from summary import percentile, tail_percentile

    setup, diagnosis = timings["setup"], timings["diagnosis"]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "diagnosis_geomean_ms": (
            statistics.geometric_mean(diagnosis) * 1000, "ms", len(diagnosis)
        ),
        # one client in a closed loop: completions per second of latency
        "diagnoses_per_s": (len(diagnosis) / sum(diagnosis), "1/s", len(diagnosis)),
    }
    for phase in ("diagnosis", "recurring", "restart"):
        values = timings.get(phase)
        if values:
            tail = tail_percentile(len(values))
            metrics[f"{phase}_p50_ms"] = (statistics.median(values) * 1000, "ms", len(values))
            metrics[f"{phase}_p{tail:g}_ms"] = (
                percentile(values, tail) * 1000, "ms", len(values)
            )
    return metrics


def e2e_metrics(result) -> dict:
    """name -> {"value", "unit", "samples"} for an untraced run: times
    rescaled by the speed gauge, and the process's peak memory."""
    metrics = time_metrics(result.timings)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
    )
    return {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    # Part of the BENCHMARK.json command line, and ignored: a run measures
    # a fixed number of passes (workloads.PASSES), so that two commits
    # measure the same samples whatever their speed.
    parser.add_argument(
        "--seconds", type=float, help="ignored: a run makes a fixed number of passes"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    parser.add_argument(
        "--spans", type=Path,
        help="span JSONL of a traced run (default: out/spans-<workload>-<seed>.jsonl)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = _declared_metrics()

    from layers import LayerProbe
    from repro.corpus import all_bugs
    from spans import SpanRecorder
    from summary import fingerprint, tail_percentile
    from workloads import PASSES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    probe = LayerProbe(SpanRecorder()) if args.trace else None
    passes = 1 if args.trace else PASSES[args.workload]
    result = WORKLOADS[args.workload](
        all_bugs(), args.seed, passes, probe=probe, work_dir=OUT_DIR
    )

    if probe is not None:
        metrics = {
            name: {"value": value, "unit": unit, "samples": 1}
            for name, (value, unit) in result.layers.items()
        }
        wanted = declared["per_layer"]
        spans_path = args.spans or OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        probe.recorder.write_jsonl(spans_path)
    else:
        metrics = e2e_metrics(result)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: the run produced no value for {missing}")

    exact = sum(1 for o in result.outcomes if o["outcome"] == "exact")
    inexact = sum(1 for o in result.outcomes if o["outcome"] == "inexact")
    reference = result.extra["reference_s"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "trace": bool(args.trace),
        "fingerprint": fingerprint(),
        "metrics": metrics,
        "tail_percentile": {
            phase: tail_percentile(len(values))
            for phase, values in result.timings.items() if phase != "setup"
        },
        "attempted": result.attempted,
        "failed": result.failed,
        "exact": exact,
        "inexact": inexact,
        # the same time metrics from raw wall-clock times, and the speed
        # gauge's reference samples they were rescaled by
        "raw_wall": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in time_metrics(result.wall).items()
        },
        "reference_ms": {
            "samples": len(reference),
            "min": min(reference) * 1000,
            "median": statistics.median(reference) * 1000,
            "max": max(reference) * 1000,
        },
        "setup_runs_s": result.timings["setup"],
        "outcomes": result.outcomes,
    }
    if result.layer_split:
        detail["layer_split"] = result.layer_split
    if "fleet_registry" in result.extra:
        detail["fleet_registry"] = result.extra["fleet_registry"]
    if args.out is not None:
        args.out.write_text(json.dumps(detail, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {
                "value": metrics[m["name"]]["value"],
                "unit": metrics[m["name"]]["unit"],
            }
            for m in wanted
        },
    }
    print(json.dumps(summary))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
