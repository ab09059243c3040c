"""Tests of the benchmark harness itself (not collected by the tier-1
suite, whose ``testpaths`` is ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
from layers import LayerProbe  # noqa: E402
from spans import Span, SpanRecorder, self_time_by_name, self_times  # noqa: E402
from summary import percentile, tail_percentile  # noqa: E402
from workloads import PASSES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_BUGS = ("redis-2988", "nginx-753")


# -- percentiles -----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(67, 85.0), (134, 90.0), (335, 95.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert percentile([0.0, 10.0], 85.0) == pytest.approx(8.5)


# -- spans -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: counted once
        Span(4, "a.child", 2.0, 3.0, parent=2),
        Span(5, "late", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: 3.0, 4: 1.0, 5: 3.0}
    assert self_time_by_name(spans)["root"] == pytest.approx(4.0)


def test_recorder_parents_by_stack_and_ambient_span():
    rec = SpanRecorder()
    with rec.span("diagnose", diagnosis="bug-1") as root:
        with rec.span("inner") as inner:
            pass
        rec.ambient = root
        done = []

        def on_worker():
            with rec.span("store.put_report"):
                done.append(True)

        worker = threading.Thread(target=on_worker)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and done
        rec.ambient = None
    by_name = {s.name: s for s in rec.spans}
    assert inner.parent == root.span_id
    assert by_name["store.put_report"].parent == root.span_id
    assert {s.diagnosis for s in rec.spans} == {"bug-1"}
    assert rec.overhead_s > 0


# -- compare ---------------------------------------------------------------


def _result(workload, values: dict, fingerprint="m1", failed=0, seed=0):
    return {
        "workload": workload,
        "seed": seed,
        "trace": False,
        "fingerprint": {"cpu_model": fingerprint},
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()},
    }


def _runs(values, name="m", failed=()):
    """One result per value, seeds 0, 1, ...; runs listed in ``failed``
    failed one operation."""
    return [
        _result("w", {name: v}, failed=int(i in failed), seed=i)
        for i, v in enumerate(values)
    ]


def _compare(base_values, change_values, bound=0.1, better="lower", failed=()):
    bench = {
        "end_to_end": [{"name": "m", "unit": "ms", "better": better, "bound": bound}],
        "per_layer": [],
    }
    report = compare.compare(
        _runs(base_values), _runs(change_values, failed=failed), bench
    )
    return report["w"]["metrics"]["m"]["verdict"]


BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_compare_verdicts():
    assert _compare(BASE, [v * 0.8 for v in BASE]) == "improved"
    assert _compare(BASE, [v * 1.03 for v in BASE]) == "no worse"
    assert _compare(BASE, [v * 1.3 for v in BASE]) == "regressed"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert _compare(noisy, [v * 1.05 for v in reversed(noisy)]) == "unresolved"
    # a metric where higher is better improves upward
    assert _compare(BASE, [v * 1.25 for v in BASE], better="higher") == "improved"


def test_compare_takes_an_undeclared_rate_as_higher_is_better():
    base = _runs(BASE, "diagnoses_per_s")
    change = _runs([v * 1.25 for v in BASE], "diagnoses_per_s")
    for result in base + change:
        result["metrics"]["diagnoses_per_s"]["unit"] = "1/s"
    bench = {"end_to_end": [], "per_layer": []}
    report = compare.compare(base, change, bench)
    assert report["w"]["metrics"]["diagnoses_per_s"]["verdict"] == "improved"


def test_compare_claims_no_gain_from_fewer_than_ten_pairs():
    assert _compare(BASE[:5], [v * 0.8 for v in BASE[:5]]) == "no worse"


def test_compare_counts_a_failure_in_any_single_run(tmp_path):
    faster = [v * 0.8 for v in BASE]
    # one change run of ten fails an operation: the median of failures is
    # still 0, but the gain no longer counts and the comparison fails
    assert _compare(BASE, faster, failed={3}) == "no worse"
    paths = {}
    for side, values, failed in (("base", BASE, ()), ("change", faster, {3})):
        paths[side] = []
        for i, result in enumerate(_runs(values, "diagnosis_geomean_ms", failed)):
            path = tmp_path / f"{side}-{i}.json"
            path.write_text(json.dumps(result))
            paths[side].append(str(path))
    argv = ["--base", *paths["base"], "--change", *paths["change"]]
    assert compare.main(argv) == 1
    assert compare.main(["--base", *paths["base"], "--change", *paths["base"]]) == 0


def test_compare_refuses_other_machines_and_seeds():
    bench = {"end_to_end": [], "per_layer": []}
    with pytest.raises(compare.IncomparableError, match="machines"):
        compare.compare(
            [_result("w", {"m": 1.0}, "m1")], [_result("w", {"m": 1.0}, "m2")], bench
        )
    with pytest.raises(compare.IncomparableError, match="seeds"):
        compare.compare(
            [_result("w", {"m": 1.0}, seed=0)], [_result("w", {"m": 1.0}, seed=1)], bench
        )


# -- the benchmark contract ------------------------------------------------


# The regression bounds the benchmark was specified with: +10%.  Set-up
# may grow by 10% plus 0.5 s, which on the 2 s set-ups of corpus-cold and
# the fleet is more than the 0.25 share a bound may be.  (Throughput,
# specified at -10%, spreads too widely to be bounded; see README.md.)
SPECIFIED_BOUNDS = {
    "setup_s": 0.25,
    "diagnosis_geomean_ms": 0.10,
    "peak_rss_mb": 0.10,
}


def test_benchmark_json_is_well_formed():
    e2e = BENCHMARK["end_to_end"]
    names = [m["name"] for m in e2e + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS) == set(PASSES)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert set(bounds) == set(SPECIFIED_BOUNDS)
    for name, bound in bounds.items():
        assert 0 < bound <= SPECIFIED_BOUNDS[name], name
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    from repro.corpus import bug

    bugs = [bug(b) for b in SMOKE_BUGS]
    work = tmp_path_factory.mktemp("perf")
    runs = {}
    for name, workload in WORKLOADS.items():
        untraced = workload(bugs, 0, PASSES[name], work_dir=work)
        traced = workload(bugs, 0, 1, probe=LayerProbe(SpanRecorder()), work_dir=work)
        runs[name] = (untraced, traced)
    return runs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(smoke_runs, workload):
    untraced, traced = smoke_runs[workload]
    # per pass, one cold diagnosis per bug; the fleet's first pass adds
    # five recurring and five restart re-reports per bug
    first_pass = {"corpus-cold": 2, "evidence-replay": 2, "fleet": 2 + 2 * 2 * 5}
    assert untraced.failed == 0 and traced.failed == 0
    assert untraced.attempted == first_pass[workload] + 2 * (PASSES[workload] - 1)
    assert traced.attempted == first_pass[workload]
    assert all(o["outcome"] == "exact" for o in untraced.outcomes)

    e2e = run.e2e_metrics(untraced)
    for spec in BENCHMARK["end_to_end"]:
        assert e2e[spec["name"]]["unit"] == spec["unit"]
        assert e2e[spec["name"]]["value"] > 0
    for spec in BENCHMARK["per_layer"]:
        value, unit = traced.layers[spec["name"]]
        assert unit == spec["unit"]
        if unit == "s":
            assert value > 0, spec["name"]
    assert traced.layers["sim.executions"][0] > 0
    assert traced.layers["pt.packets_psb"][0] > 0
    split = traced.layer_split
    assert split["total_s"] > 0
    if workload != "fleet":  # in process every span nests on one thread
        assert sum(split["layers"].values()) == pytest.approx(split["total_s"])
