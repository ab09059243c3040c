"""The diagnosis job queue: bounded workers, dedup, backpressure.

``LazyDiagnosis`` is CPU-bound (points-to analysis + pattern scoring),
so the fleet server never runs it on the event loop: failures become
jobs on a bounded worker pool.  Three properties matter in production:

* **Deduplication** — when N endpoints hit the same bug, their failure
  signatures collide and all N are attached to ONE diagnosis whose
  result is fanned back out.  This is the paper's deployment economy:
  one fleet-wide root cause per bug, not one per crash report.
* **Backpressure** — the pool's pending set is bounded; a novel failure
  arriving at a full queue is rejected with a retry-after hint instead
  of growing memory without bound.
* **Draining shutdown** — ``shutdown(wait=True)`` stops intake but lets
  in-flight diagnoses finish, so no accepted failure report is lost.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Callable

from repro.errors import FleetError
from repro.obs import MetricsRegistry


def _settled(result: object) -> Future:
    future: Future = Future()
    future.set_result(result)
    return future


class JobRejected(FleetError):
    """Backpressure: the bounded queue is full; retry after a delay."""

    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"diagnosis queue full; retry after {retry_after:.2f}s")


class QueueClosed(FleetError):
    """The queue is shutting down and accepts no new jobs."""


class DiagnosisJobQueue:
    """Signature-keyed job queue over a bounded thread pool.

    ``submit`` returns ``(future, deduplicated)``.  A signature's future
    is shared for the queue's lifetime, so late reports of an
    already-diagnosed bug get the cached result instantly (and count as
    dedup hits) rather than re-running the pipeline.

    Only *successful* diagnoses are cached: a job that raised (e.g. a
    transient fleet outage mid-collection) is evicted on completion, so
    the next report of that signature retries the diagnosis instead of
    being served the stale failure forever.
    """

    def __init__(
        self,
        workers: int | None = 2,
        max_pending: int = 8,
        retry_after: float = 0.25,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ):
        if workers is None:
            # auto-scale to the machine: one worker per core, bounded —
            # diagnosis is CPU-bound, more workers than cores just thrash
            workers = max(2, min(8, os.cpu_count() or 2))
        if workers < 1:
            raise FleetError("job queue needs at least one worker")
        self.workers = workers
        if max_pending < 1:
            raise FleetError("job queue needs max_pending >= 1")
        self.metrics = metrics or MetricsRegistry()
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer  # noqa: N813
        self.tracer = tracer
        self.retry_after = retry_after
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="diagnosis"
        )
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}
        self._submitted: dict[str, float] = {}  # signature -> submit time
        self._pending: set[str] = set()  # submitted, not yet finished
        self._listeners: list[Callable[[str, object], None]] = []
        self._closed = False

    # -- intake ------------------------------------------------------------

    def submit(
        self, signature: str, fn: Callable[[], object]
    ) -> tuple[Future, bool]:
        with self._lock:
            if self._closed:
                raise QueueClosed("job queue is shut down")
            existing = self._futures.get(signature)
            if existing is not None:
                self.metrics.inc("jobs_deduplicated")
                return existing, True
            if len(self._pending) >= self.max_pending:
                self.metrics.inc("jobs_rejected")
                raise JobRejected(self.retry_after)
            self._pending.add(signature)
            self._submitted[signature] = perf_counter()
            self.metrics.inc("jobs_submitted")
            self.metrics.gauge("queue_depth", len(self._pending))
            future = self._pool.submit(self._run, signature, fn)
            self._futures[signature] = future
        # outside the lock: a fast job may already be done, in which case
        # add_done_callback runs _finished inline on this thread
        future.add_done_callback(lambda f, s=signature: self._finished(s))
        return future, False

    def _run(self, signature: str, fn: Callable[[], object]) -> object:
        with self._lock:
            submitted = self._submitted.get(signature)
        wait = perf_counter() - submitted if submitted is not None else 0.0
        self.metrics.observe("queue_wait", wait)
        # the job's root span lives on the worker thread; everything the
        # diagnosis does below (diagnosis_job, collection, pipeline
        # stages) nests under it via the thread-local span stack
        with self.tracer.span("fleet_job", signature=signature) as span:
            self.tracer.record("job_queue_wait", wait, parent=span)
            with self.metrics.timer("diagnosis_latency"):
                return fn()

    def add_completion_listener(
        self, listener: Callable[[str, object], None]
    ) -> None:
        """Register ``listener(signature, result)`` to run after each
        *successful* diagnosis (failed jobs are evicted and retried, so
        there is no result to announce).  Listeners run on the worker
        thread that finished the job, outside the queue lock; one that
        raises is counted (``completion_listener_errors``) and never
        breaks the queue.  This is how a persistent store learns about
        fresh reports without the server threading a callback through
        every submit call."""
        with self._lock:
            self._listeners.append(listener)

    def _finished(self, signature: str) -> None:
        with self._lock:
            self._pending.discard(signature)
            future = self._futures.get(signature)
            failed = future is not None and (
                future.cancelled() or future.exception() is not None
            )
            if failed:
                # don't poison the signature: a re-report retries
                self._futures.pop(signature, None)
            elif future is not None:
                # cache a settled copy: the job's own future keeps every
                # done-callback registered on it (closures over the
                # server), which would otherwise live as long as the cache
                self._futures[signature] = _settled(future.result())
            # the submit timestamp served its purpose (queue_wait); keeping
            # it for successful jobs would grow without bound alongside the
            # intentional _futures result cache
            self._submitted.pop(signature, None)
            self.metrics.gauge("queue_depth", len(self._pending))
            listeners = list(self._listeners) if not failed else ()
            if self._closed and not self._pending:
                self._listeners.clear()  # closed and idle: nothing left to announce
        self.metrics.inc("jobs_failed" if failed else "jobs_completed")
        if listeners:
            result = future.result()
            for listener in listeners:
                try:
                    listener(signature, result)
                except Exception:
                    self.metrics.inc("completion_listener_errors")

    # -- introspection -----------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def tracked_submissions(self) -> int:
        """Submit timestamps currently held.

        Bounded by the number of in-flight jobs (≤ ``max_pending``), not
        by queue lifetime: a timestamp exists from ``submit`` until the
        job's completion callback, where it is dropped regardless of
        outcome — it only ever feeds the ``queue_wait`` observation.
        Deduplicated submits reuse the original timestamp, and a cached
        (already-finished) signature holds none.  A value that stays
        above zero after the fleet quiesces therefore means a job is
        genuinely stuck, which is what the chaos harness polls it for."""
        with self._lock:
            return len(self._submitted)

    def result_for(self, signature: str) -> Future | None:
        with self._lock:
            return self._futures.get(signature)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` began: no intake, jobs draining."""
        return self._closed

    def shutdown(self, wait: bool = True) -> None:
        """Stop intake; with ``wait`` drain every in-flight diagnosis."""
        with self._lock:
            self._closed = True
            if not self._pending:
                # listeners are bound methods of their owner (the fleet
                # server): drop them once no job can announce a result
                self._listeners.clear()
        self._pool.shutdown(wait=wait)
