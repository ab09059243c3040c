"""Job-queue semantics: dedup, backpressure, draining shutdown."""

import threading
import time

import pytest

from repro.fleet.jobs import DiagnosisJobQueue, JobRejected, QueueClosed
from repro.obs import MetricsRegistry


def test_identical_signatures_run_once():
    queue = DiagnosisJobQueue(workers=2, max_pending=4)
    release = threading.Event()
    calls = []

    def job():
        calls.append(1)
        release.wait(timeout=10)
        return "root-cause"

    futures = []
    dedups = []

    def submit():
        future, dedup = queue.submit("mysql-3596|crash|42", job)
        futures.append(future)
        dedups.append(dedup)

    # concurrent reports of the same failure signature from many endpoints
    threads = [threading.Thread(target=submit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    release.set()
    results = {f.result(timeout=10) for f in futures}
    queue.shutdown()
    assert len(calls) == 1  # one diagnosis, not eight
    assert results == {"root-cause"}
    assert sum(dedups) == 7
    assert queue.metrics.counter("jobs_deduplicated") == 7
    assert queue.metrics.counter("jobs_submitted") == 1


def test_completed_signature_serves_cached_result():
    queue = DiagnosisJobQueue(workers=1, max_pending=2)
    first, dedup_first = queue.submit("sig", lambda: 99)
    assert first.result(timeout=10) == 99
    again, dedup_again = queue.submit("sig", lambda: pytest.fail("must not rerun"))
    assert dedup_again and not dedup_first
    assert again.result(timeout=1) == 99
    queue.shutdown()


def test_backpressure_rejects_when_full():
    queue = DiagnosisJobQueue(workers=1, max_pending=2, retry_after=0.125)
    release = threading.Event()
    queue.submit("a", lambda: release.wait(10))
    queue.submit("b", lambda: release.wait(10))
    with pytest.raises(JobRejected) as excinfo:
        queue.submit("c", lambda: None)
    assert excinfo.value.retry_after == 0.125
    assert queue.metrics.counter("jobs_rejected") == 1
    # a duplicate of an in-flight signature is NOT new load: accepted even
    # when the queue is full
    _, dedup = queue.submit("a", lambda: None)
    assert dedup
    release.set()
    queue.shutdown()


def test_backpressure_recovers_after_drain():
    queue = DiagnosisJobQueue(workers=2, max_pending=1)
    gate = threading.Event()
    blocked, _ = queue.submit("slow", lambda: gate.wait(10))
    with pytest.raises(JobRejected):
        queue.submit("next", lambda: 1)
    gate.set()
    blocked.result(timeout=10)
    deadline = time.monotonic() + 5
    while queue.depth and time.monotonic() < deadline:
        time.sleep(0.01)
    future, dedup = queue.submit("next", lambda: 1)
    assert not dedup and future.result(timeout=10) == 1
    queue.shutdown()


def test_shutdown_drains_in_flight_jobs():
    metrics = MetricsRegistry()
    queue = DiagnosisJobQueue(workers=2, max_pending=8, metrics=metrics)
    started = threading.Event()

    def slow(tag):
        started.set()
        time.sleep(0.05)
        return tag

    futures = [queue.submit(f"sig-{i}", lambda i=i: slow(i))[0] for i in range(4)]
    started.wait(timeout=10)
    queue.shutdown(wait=True)  # must block until every accepted job finishes
    assert all(f.done() for f in futures)
    assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
    assert metrics.counter("jobs_completed") == 4


def test_shutdown_refuses_new_jobs():
    queue = DiagnosisJobQueue(workers=1, max_pending=2)
    queue.shutdown()
    with pytest.raises(QueueClosed):
        queue.submit("late", lambda: 1)


def test_queue_depth_gauge_tracks_pending():
    metrics = MetricsRegistry()
    queue = DiagnosisJobQueue(workers=1, max_pending=4, metrics=metrics)
    gate = threading.Event()
    queue.submit("a", lambda: gate.wait(10))
    queue.submit("b", lambda: None)
    assert queue.depth == 2
    assert metrics.as_dict()["gauges"]["queue_depth"] == 2
    gate.set()
    queue.shutdown(wait=True)
    assert queue.depth == 0


def _drain_tracking(queue, deadline=5.0):
    # _finished runs on the executor thread after the future resolves;
    # give the callback a bounded moment to fire
    end = time.monotonic() + deadline
    while queue.tracked_submissions and time.monotonic() < end:
        time.sleep(0.005)
    return queue.tracked_submissions


def test_completed_jobs_release_submit_tracking():
    # Regression: successful jobs never popped their _submitted entry,
    # so the submit-timestamp map grew one entry per distinct signature
    # for the life of the queue.
    queue = DiagnosisJobQueue(workers=2, max_pending=8)
    try:
        futures = [
            queue.submit(f"sig-{i}", lambda i=i: f"report-{i}")[0]
            for i in range(6)
        ]
        for f in futures:
            assert f.result(timeout=10).startswith("report-")
        assert _drain_tracking(queue) == 0
    finally:
        queue.shutdown(wait=True)


def test_failed_jobs_release_submit_tracking():
    queue = DiagnosisJobQueue(workers=1, max_pending=4)

    def boom():
        raise RuntimeError("injected")

    try:
        future, _ = queue.submit("sig-err", boom)
        with pytest.raises(RuntimeError):
            future.result(timeout=10)
        assert _drain_tracking(queue) == 0
        # the signature is resubmittable (not served from a dead future)
        again, dedup = queue.submit("sig-err", lambda: "ok")
        assert not dedup
        assert again.result(timeout=10) == "ok"
    finally:
        queue.shutdown(wait=True)


# -- completion listeners ----------------------------------------------------


def test_completion_listener_fires_for_successes_only():
    queue = DiagnosisJobQueue(workers=1, max_pending=4)
    seen = []
    queue.add_completion_listener(lambda sig, result: seen.append((sig, result)))

    def boom():
        raise RuntimeError("injected")

    try:
        ok, _ = queue.submit("sig-ok", lambda: "report")
        assert ok.result(timeout=10) == "report"
        bad, _ = queue.submit("sig-bad", boom)
        with pytest.raises(RuntimeError):
            bad.result(timeout=10)
        deadline = time.monotonic() + 5
        while not seen and time.monotonic() < deadline:
            time.sleep(0.005)
        # only the successful diagnosis is announced: the failed job was
        # evicted and has no result a listener could persist
        assert seen == [("sig-ok", "report")]
        # dedup hits reuse the cached future and do not re-announce
        again, dedup = queue.submit("sig-ok", lambda: "other")
        assert dedup and again.result(timeout=10) == "report"
        time.sleep(0.05)
        assert seen == [("sig-ok", "report")]
    finally:
        queue.shutdown(wait=True)


def test_completion_listener_errors_are_counted_not_raised():
    metrics = MetricsRegistry()
    queue = DiagnosisJobQueue(workers=1, max_pending=4, metrics=metrics)

    def angry_listener(signature, result):
        raise RuntimeError("listener bug")

    calm = []
    queue.add_completion_listener(angry_listener)
    queue.add_completion_listener(lambda s, r: calm.append(s))
    try:
        future, _ = queue.submit("sig", lambda: 1)
        assert future.result(timeout=10) == 1
        deadline = time.monotonic() + 5
        while not calm and time.monotonic() < deadline:
            time.sleep(0.005)
        # the broken listener is counted; later listeners still ran
        assert metrics.counter("completion_listener_errors") == 1
        assert calm == ["sig"]
    finally:
        queue.shutdown(wait=True)
