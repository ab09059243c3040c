"""Fleet service throughput: failures/sec, diagnosis latency, caches.

Not a paper figure — this measures the repo's own deployment layer
(`repro.fleet`): a 50-agent localhost fleet with three corpus bugs
failing on three endpoints each.  Two waves run against the *same*
server caches: the cold wave pays full decode + points-to cost, the
warm wave models the production steady state — the same bugs recurring
across the fleet — where the analysis cache and decoded-trace cache
short-circuit the pipeline.  Recorded per wave: failure ingest rate,
median per-diagnosis latency (queue + remote trace collection +
analysis), the stage breakdown, cache hit counts, and the dedup economy
(reports folded per diagnosis).
"""

from dataclasses import replace

import pytest

from repro.bench import render_table
from repro.core.cache import DiagnosisCaches
from repro.fleet import DEFAULT_BUGS, FleetConfig, run_fleet
from repro.obs import MetricsRegistry, Observability

AGENTS = 50
REPORTERS_PER_BUG = 3


@pytest.fixture(scope="module")
def fleet_waves():
    caches = DiagnosisCaches()
    config = FleetConfig(
        agents=AGENTS,
        bug_ids=DEFAULT_BUGS,
        reporters_per_bug=REPORTERS_PER_BUG,
        workers=3,
        max_pending=8,
        # the pipelined collection path: batched wire frames (default)
        # plus adaptive stopping — stop as soon as the top-ranked
        # pattern is stable instead of always collecting the fixed count
        stopping="stable-top",
    )
    # the cold wave runs with the span tracer on (registry shared with
    # the wave's metrics, so the counters below are unaffected); its
    # span tree goes into the emitted report
    cold_metrics = MetricsRegistry()
    cold = run_fleet(
        replace(config, obs=Observability(registry=cold_metrics)),
        metrics=cold_metrics,
        caches=caches,
    )
    warm = run_fleet(config, metrics=MetricsRegistry(), caches=caches)
    return cold, warm


def _check_wave(r):
    errors = [o for o in r.outcomes if o.error]
    assert not errors, errors
    assert r.failures_received == len(DEFAULT_BUGS) * REPORTERS_PER_BUG
    assert r.diagnoses_completed == len(DEFAULT_BUGS)
    assert r.dedup_hits == r.failures_received - r.diagnoses_completed
    assert r.failures_per_sec > 0.5
    assert 0 < r.median_diagnosis_latency_s < 60
    for digest in r.digests.values():
        assert digest["diagnosed"] and digest["f1"] == 1.0


def test_fleet_throughput(fleet_waves, emit):
    cold, warm = fleet_waves

    def ms(r, timer, key="median_s"):
        timers = r.metrics["timers"]
        return timers[timer][key] * 1000 if timer in timers else 0.0

    def row(metric, fmt, fn):
        return (metric, fmt.format(fn(cold)), fmt.format(fn(warm)))

    rows = [
        row("failures received", "{}", lambda r: r.failures_received),
        row("failures/sec", "{:.1f}", lambda r: r.failures_per_sec),
        row("diagnoses run", "{}", lambda r: r.diagnoses_completed),
        row("reports folded by dedup", "{}", lambda r: r.dedup_hits),
        row(
            "trace requests over the wire",
            "{}",
            lambda r: r.metrics["counters"].get("trace_requests_sent", 0),
        ),
        row(
            "batch frames sent",
            "{}",
            lambda r: r.metrics["counters"].get("trace_batches_sent", 0),
        ),
        row(
            "evidence cache hits",
            "{}",
            lambda r: r.metrics["counters"].get("evidence_cache_hits", 0),
        ),
        row(
            "median diagnosis latency",
            "{:.0f} ms",
            lambda r: r.median_diagnosis_latency_s * 1000,
        ),
        row(
            "  median trace collection",
            "{:.0f} ms",
            lambda r: ms(r, "collection_latency"),
        ),
        row("  collect stage p50", "{:.0f} ms", lambda r: ms(r, "stage_collect")),
        row(
            "  collect stage p95",
            "{:.0f} ms",
            lambda r: ms(r, "stage_collect", "p95_s"),
        ),
        row("  decode stage p50", "{:.2f} ms", lambda r: ms(r, "stage_decode")),
        row(
            "  decode stage p95",
            "{:.2f} ms",
            lambda r: ms(r, "stage_decode", "p95_s"),
        ),
        row("  median analysis", "{:.2f} ms", lambda r: ms(r, "analysis_latency")),
        row(
            "    points-to stage", "{:.2f} ms", lambda r: ms(r, "stage_points_to")
        ),
        row(
            "    trace processing stage",
            "{:.2f} ms",
            lambda r: ms(r, "stage_trace_processing"),
        ),
        row("cache hits (analysis)", "{}", lambda r: r.analysis_cache_hits),
        row("cache hits (trace)", "{}", lambda r: r.trace_cache_hits),
        row("cache hit rate", "{:.0%}", lambda r: r.cache_hit_rate),
        row("wall clock", "{:.2f} s", lambda r: r.elapsed),
    ]
    text = render_table(
        f"fleet throughput: {AGENTS} agents, "
        f"{len(DEFAULT_BUGS)} bugs x {REPORTERS_PER_BUG} reporters; "
        "cold vs warm caches",
        ["metric", "cold", "warm"],
        rows,
    )
    # the cold wave's span forest: one fleet_job tree per bug, with the
    # collection round-trips and pipeline stages nested under it
    text += "\n\ncold-wave span tree:\n" + cold.obs.tracer.render_tree()
    emit("fleet", text)
    # service-level invariants hold in both waves
    _check_wave(cold)
    _check_wave(warm)
    # the waves are deterministic replays of each other: same evidence,
    # byte-identical diagnoses
    assert cold.digests == warm.digests
    # the warm wave is the cache demonstration: every diagnosis hits the
    # analysis cache, every decode comes from the trace cache
    assert warm.analysis_cache_hits == len(DEFAULT_BUGS)
    assert warm.trace_cache_hits > 0
    assert warm.cache_hit_rate == 1.0
    assert warm.metrics["counters"].get("trace_cache_misses", 0) == 0
    # evidence memoization: the warm wave replays the cold wave's
    # collected samples — zero remote executions for recurring failures
    assert cold.metrics["counters"].get("evidence_cache_hits", 0) == 0
    assert warm.metrics["counters"].get("evidence_cache_hits", 0) == len(
        DEFAULT_BUGS
    )
    assert warm.metrics["counters"].get("trace_requests_sent", 0) == 0
