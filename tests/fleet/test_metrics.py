"""The fleet's MetricsRegistry: counters, timers, snapshot rendering."""

import threading

from repro.obs import MetricsRegistry


def test_counters_accumulate():
    m = MetricsRegistry()
    m.inc("failures_received")
    m.inc("failures_received", 4)
    assert m.counter("failures_received") == 5
    assert m.counter("unknown") == 0


def test_counters_thread_safe():
    m = MetricsRegistry()

    def bump():
        for _ in range(1000):
            m.inc("n")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert m.counter("n") == 8000


def test_timer_context_manager_records():
    m = MetricsRegistry()
    with m.timer("diagnosis_latency"):
        pass
    with m.timer("diagnosis_latency"):
        pass
    timings = m.timings("diagnosis_latency")
    assert len(timings) == 2
    assert all(t >= 0 for t in timings)
    assert m.median("diagnosis_latency") >= 0


def test_as_dict_and_render():
    m = MetricsRegistry()
    m.inc("failures_received", 3)
    m.gauge("queue_depth", 2)
    m.observe("analysis_latency", 0.25)
    m.observe("analysis_latency", 0.75)
    snap = m.as_dict()
    assert snap["counters"] == {"failures_received": 3}
    assert snap["gauges"] == {"queue_depth": 2}
    summary = snap["timers"]["analysis_latency"]
    assert summary["count"] == 2
    assert summary["median_s"] == 0.5
    assert summary["max_s"] == 0.75
    text = m.render()
    assert "failures_received" in text
    assert "queue_depth" in text
    assert "analysis_latency" in text
