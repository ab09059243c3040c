"""Ablation: how many successful traces does statistical diagnosis need?

Snorlax caps successful traces at 10x the failing ones, "an upper limit
we empirically determined to be sufficient for full root cause
diagnosis accuracy" (§5).  This bench repeats the determination: as the
number of successful traces grows, satellite patterns (present in the
failing run but also benign) lose F1 until only the root cause remains
at 1.0 and the diagnosis becomes unambiguous.
"""

import pytest

from repro.bench import client_for, render_table
from repro.core import LazyDiagnosis
from repro.corpus import bug
from repro.runtime import CollectionPolicy, SnorlaxServer

BUG = "memcached-127"
COUNTS = (0, 1, 3, 10)


@pytest.fixture(scope="module")
def sweep():
    spec = bug(BUG)
    module = spec.module()
    client = client_for(spec, tracing=True)
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(
        module, policy=CollectionPolicy(success_traces_wanted=max(COUNTS))
    )
    failing_sample = server.sample_from_run("failure", failing)
    successes = server.collect_successful_traces(
        client, failing.failure.failing_uid, 10_000
    )
    truth = spec.ground_truth.resolve(module)
    rows = []
    for count in COUNTS:
        report = LazyDiagnosis(module).diagnose(
            [failing_sample], successes[:count]
        )
        top = report.ranked_patterns[0] if report.ranked_patterns else None
        tied_at_top = sum(
            1 for p in report.ranked_patterns if top and p.f1 == top.f1
        )
        rows.append(
            {
                "count": count,
                "exact": report.ordered_target_uids() == truth,
                "unambiguous": report.unambiguous,
                "tied_at_top": tied_at_top,
            }
        )
    return rows


def test_ablation_success_trace_count(benchmark, sweep, emit):
    benchmark.pedantic(lambda: len(sweep), iterations=1, rounds=1)
    emit(
        "ablation_success_traces",
        render_table(
            f"Ablation: successful traces vs diagnosis quality ({BUG})",
            ["success traces", "exact diagnosis", "unambiguous", "patterns tied at top F1"],
            [
                (r["count"], "yes" if r["exact"] else "NO",
                 "yes" if r["unambiguous"] else "NO", r["tied_at_top"])
                for r in sweep
            ],
        ),
    )
    # with zero successful traces everything in the failing run ties at
    # F1 = 1: the statistics cannot discriminate yet
    assert sweep[0]["tied_at_top"] > 1
    # at the paper's 10x cap the diagnosis is exact and unambiguous
    final = sweep[-1]
    assert final["exact"] and final["unambiguous"]
    # ambiguity never increases as evidence accumulates
    ties = [r["tied_at_top"] for r in sweep]
    assert all(a >= b for a, b in zip(ties, ties[1:]))
