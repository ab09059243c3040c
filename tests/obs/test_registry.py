"""MetricsRegistry: the unified counters/gauges/histograms surface."""

from repro.core.cache import CacheStats
from repro.obs import NULL_REGISTRY, MetricsRegistry


def test_counters_and_gauges():
    m = MetricsRegistry()
    m.inc("jobs_submitted")
    m.inc("jobs_submitted", 4)
    m.gauge("queue_depth", 3)
    m.gauge("queue_depth", 1)  # gauges overwrite
    assert m.counter("jobs_submitted") == 5
    assert m.counter("never_touched") == 0
    assert m.gauge_value("queue_depth") == 1


def test_percentile_interpolates_linearly():
    m = MetricsRegistry()
    for v in range(1, 101):
        m.observe("latency", float(v))
    assert m.percentile("latency", 50) == 50.5
    assert m.percentile("latency", 99) == 99.01
    assert m.percentile("latency", 100) == 100.0
    assert m.median("latency") == 50.5
    assert m.percentile("empty", 95) == 0.0
    m.observe("single", 7.0)
    assert m.percentile("single", 95) == 7.0


def test_nan_observations_do_not_poison_percentiles():
    # regression: NaN compares False with everything, so one NaN in a
    # histogram silently misordered sorted() and corrupted every
    # quantile after it
    m = MetricsRegistry()
    for v in (1.0, float("nan"), 2.0, 3.0, float("nan"), 4.0):
        m.observe("latency", v)
    assert m.percentile("latency", 50) == 2.5
    assert m.percentile("latency", 100) == 4.0
    assert m.median("latency") == 2.5
    # a histogram of only NaN answers like an empty one, never NaN
    m.observe("poisoned", float("nan"))
    assert m.percentile("poisoned", 95) == 0.0
    assert m.median("poisoned") == 0.0


def test_as_dict_counts_nan_but_summarizes_finite():
    m = MetricsRegistry()
    m.observe("t", 1.0)
    m.observe("t", float("nan"))
    m.observe("t", 3.0)
    summary = m.as_dict()["timers"]["t"]
    assert summary["count"] == 3  # everything observed is counted...
    assert summary["total_s"] == 4.0  # ...stats cover the finite ones
    assert summary["median_s"] == 2.0
    assert summary["max_s"] == 3.0


def test_timer_context_manager_observes():
    m = MetricsRegistry()
    with m.timer("stage_points_to"):
        pass
    timings = m.timings("stage_points_to")
    assert len(timings) == 1 and timings[0] >= 0.0


def test_counters_with_prefix():
    m = MetricsRegistry()
    m.inc("chaos_corrupt", 2)
    m.inc("chaos_drop")
    m.inc("jobs_completed")
    assert m.counters_with_prefix("chaos_") == {
        "chaos_corrupt": 2,
        "chaos_drop": 1,
    }


def test_merge_counters_adds_with_optional_prefix():
    m = MetricsRegistry()
    m.merge_counters({"hits": 2, "misses": 1}, prefix="trace_cache_")
    m.merge_counters({"hits": 3}, prefix="trace_cache_")
    assert m.counter("trace_cache_hits") == 5
    assert m.counter("trace_cache_misses") == 1


def test_absorb_solver_stats_uses_as_counters():
    class FakeStats:
        def as_counters(self):
            return {"solver_propagations": 10, "solver_constraints": 4}

    m = MetricsRegistry()
    m.absorb_stats(FakeStats())
    m.absorb_stats(FakeStats())  # increments accumulate
    assert m.counter("solver_propagations") == 20
    m.absorb_stats(object())  # no as_counters: silently skipped


def test_absorb_cache_stats_sets_totals_not_increments():
    stats = CacheStats()
    stats.hits = 3
    stats.misses = 1
    m = MetricsRegistry()
    m.absorb_cache_stats("analysis_cache", stats)
    stats.hits = 5  # the cache keeps counting...
    m.absorb_cache_stats("analysis_cache", stats)
    # ...and absorbing again reflects the latest totals, not 3 + 5
    assert m.counter("analysis_cache_hits") == 5
    assert m.counter("analysis_cache_misses") == 1


def test_as_dict_snapshot_shape():
    m = MetricsRegistry()
    m.inc("a")
    m.gauge("g", 2.5)
    m.observe("t", 1.0)
    m.observe("t", 3.0)
    snap = m.as_dict()
    assert snap["counters"] == {"a": 1}
    assert snap["gauges"] == {"g": 2.5}
    summary = snap["timers"]["t"]
    assert summary["count"] == 2
    assert summary["total_s"] == 4.0
    assert summary["median_s"] == 2.0
    assert summary["max_s"] == 3.0
    assert "a" in m.render()


def test_null_registry_records_nothing():
    NULL_REGISTRY.inc("x", 100)
    NULL_REGISTRY.gauge("g", 1.0)
    NULL_REGISTRY.observe("t", 1.0)
    NULL_REGISTRY.merge_counters({"x": 1})
    stats = CacheStats()
    stats.hits = 9
    NULL_REGISTRY.absorb_cache_stats("c", stats)
    assert NULL_REGISTRY.counter("x") == 0
    assert NULL_REGISTRY.as_dict() == {"counters": {}, "gauges": {}, "timers": {}}


def test_store_counters_flow_through_absorb_unchanged():
    # the satellite contract: the store's hit/miss/write totals arrive
    # in the registry exactly as CacheStats.as_counters emits them
    stats = CacheStats(hits=4, misses=2, evictions=0, writes=7)
    m = MetricsRegistry()
    m.absorb_cache_stats("store", stats)
    for key, value in stats.as_counters(prefix="store_").items():
        assert m.counter(key) == value
    stats.writes = 9  # the store keeps counting; re-absorb SETS totals
    m.absorb_cache_stats("store", stats)
    assert m.counter("store_writes") == 9
