"""The process-wide metrics registry: one naming surface for the stack.

The :class:`MetricsRegistry` is the one metric surface of the stack:
counters, gauges, and histograms under one snake_case vocabulary, with
``percentile()`` and ``counters_with_prefix()`` everywhere.  The solver
and cache stats objects (``repro.core.andersen.SolverStats``,
``repro.core.cache.CacheStats``) are absorbed via
:meth:`absorb_stats` / :meth:`absorb_cache_stats` (they keep
their own read surface — see their modules); the fleet service, job
queue, and pipeline stages record here directly.

Metric name vocabulary (prefix -> owner):

* ``solver_*`` — points-to solver work (propagations, SCC collapses…);
* ``analysis_cache_*`` / ``trace_cache_*`` — diagnosis cache health
  (unified with :class:`~repro.core.cache.CacheStats`);
* ``stage_*`` (histograms) — per-pipeline-stage wall time;
* ``digest_mismatches`` — fleet digests that diverged from the
  in-process diagnosis (the fleet demo's correctness tripwire).

Fleet service counters:

* ``failures_received`` / ``diagnoses_completed`` / ``jobs_*`` /
  ``queue_*`` — the intake funnel and diagnosis job queue (submitted,
  deduplicated, rejected, completed, failed);
* ``trace_requests_sent`` / ``trace_responses_received`` /
  ``traces_collected`` — step-8 collection volume;
* ``store_*`` / ``diagnoses_from_store`` — the persistent store, and
  failure reports answered from it without a pipeline run;
* ``shard_routes`` / ``shard_routes_<shard>`` / ``shard_kills`` /
  ``shards_removed`` — signature placement and shard membership.

Fleet resilience counters (all zero on a polite network):

* ``wire_errors`` — frames the server could not decode (corruption);
* ``trace_request_timeouts`` — an endpoint held a request past the
  reply timeout and the request was rerouted;
* ``trace_request_reroutes`` — requests re-sent after a connection
  error mid-flight;
* ``trace_requests_abandoned`` / ``trace_requests_failed`` — requests
  whose whole wall-clock budget expired (no endpoint answered at all);
* ``orphan_trace_responses`` — late answers to already-rerouted
  requests (dropped; the rerouted run was deterministic in the seed);
* ``agents_superseded`` — connections retired by a duplicate/newer
  ``Hello`` for the same agent id;
* ``result_delivery_failures`` — finished diagnoses that could not be
  written back to a reporter (it vanished before delivery);
* ``degraded_collections`` — diagnoses that ran with fewer successful
  traces than wanted because collection gave up (deadline or attempt
  cap), recorded by the diagnosis session in and out of the fleet;
* ``jobs_failed`` — diagnosis jobs that raised (evicted for retry);
* ``server_restarts`` — injected/administrative full restarts;
* ``agents_evicted_stale`` — connections evicted by the liveness
  monitor after missing heartbeats past ``heartbeat_timeout_s``;
* ``chaos_*`` — faults the simulation's ``FaultPlan`` injected
  (``chaos_corrupted``, ``chaos_dropped``, ``chaos_truncated``,
  ``chaos_crashes``, ``chaos_delayed``, ``chaos_inbound_corrupted``).

Always-on monitoring counters:

* ``heartbeats_received`` — liveness beacons from monitor loops;
* ``monitor_samples_received`` / ``monitor_failures_seen`` — sampled
  executions streamed by monitor loops, and how many carried failures;
* ``anomaly_triggers`` — detector trips that started (or fetched) a
  diagnosis unprompted; ``anomaly_rejected`` counts trips bounced by
  queue backpressure (the detector re-trips next window);
* ``evidence_graphs_built`` — provenance DAGs recorded for finished
  diagnoses (queryable via the dashboard's ``/api/evidence``).

Histograms are stored as raw observation lists ("timers" in the export
snapshot, for backward compatibility with the fleet dashboards/tests
that consume ``as_dict()["timers"]``).
"""

from __future__ import annotations

import math
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile of pre-sorted observations."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _finite(values: list[float]) -> list[float]:
    """Observations with NaN dropped.  A NaN observation (a failed
    timer, arithmetic on a corrupt sample) would poison ``sorted()``
    — NaN compares False with everything, so the 'sorted' list is
    misordered and every quantile after it is garbage."""
    return [v for v in values if not math.isnan(v)]


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms with percentiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self._timers.setdefault(name, []).append(seconds)

    @contextmanager
    def timer(self, name: str):
        started = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - started)

    def merge_counters(self, counters: dict[str, int], prefix: str = "") -> None:
        """Add a batch of counter increments (e.g. a legacy stats object
        rendered through its ``as_counters()`` accessor)."""
        with self._lock:
            for name, amount in counters.items():
                key = prefix + name
                self._counters[key] = self._counters.get(key, 0) + amount

    def absorb_stats(self, stats) -> None:
        """Fold a stats object exposing ``as_counters()`` — a
        :class:`~repro.core.andersen.SolverStats` (``solver_*``) or a
        :class:`~repro.check.runner.CheckStats` (``check_*``) — into the
        unified vocabulary; objects without it are skipped."""
        as_counters = getattr(stats, "as_counters", None)
        if as_counters is not None:
            self.merge_counters(as_counters())

    def absorb_cache_stats(self, name: str, stats) -> None:
        """Snapshot one cache's :class:`~repro.core.cache.CacheStats`
        under ``{name}_hits`` / ``_misses`` / ``_evictions``.

        Cache stats are cumulative on the cache object, so this *sets*
        gauges-as-counters rather than incrementing: absorbing twice
        reflects the latest totals, not double counts.
        """
        with self._lock:
            for key, value in stats.as_counters(prefix=f"{name}_").items():
                self._counters[key] = value

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def timings(self, name: str) -> list[float]:
        with self._lock:
            return list(self._timers.get(name, ()))

    def median(self, name: str) -> float:
        values = _finite(self.timings(name))
        return statistics.median(values) if values else 0.0

    def percentile(self, name: str, q: float) -> float:
        """The q-th percentile (0 < q < 100) of a histogram's
        observations — tail latency is what degrades first when the
        network misbehaves.  Empty histograms (and histograms whose
        every observation was NaN) answer 0.0, never raise."""
        return _quantile(sorted(_finite(self.timings(name))), q)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """All counters whose name starts with ``prefix`` (e.g. the
        ``chaos_`` family) — how the simulation reports injected faults."""
        with self._lock:
            return {
                k: v for k, v in sorted(self._counters.items())
                if k.startswith(prefix)
            }

    def as_dict(self) -> dict:
        """A stable snapshot: counters, gauges, and histogram summaries
        (exported under the legacy ``timers`` key)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            timers = {k: list(v) for k, v in self._timers.items()}
        summary = {}
        for name, values in sorted(timers.items()):
            # summaries are computed over the finite observations only,
            # but ``count`` reports everything observed: a NaN-producing
            # timer shows up as count > what the stats cover, instead of
            # NaN-poisoning mean/median/p95 for the whole histogram
            finite = _finite(values)
            ordered = sorted(finite)
            summary[name] = {
                "count": len(values),
                "total_s": sum(finite),
                "mean_s": statistics.fmean(finite) if finite else 0.0,
                "median_s": statistics.median(finite) if finite else 0.0,
                "p95_s": _quantile(ordered, 95.0),
                "max_s": ordered[-1] if ordered else 0.0,
            }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "timers": summary,
        }

    def render(self) -> str:
        snap = self.as_dict()
        lines = ["=== fleet metrics ==="]
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(k) for k in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(k) for k in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["timers"]:
            lines.append("timers:")
            for name, s in snap["timers"].items():
                lines.append(
                    f"  {name}: n={s['count']} total={s['total_s'] * 1000:.1f}ms "
                    f"mean={s['mean_s'] * 1000:.1f}ms "
                    f"median={s['median_s'] * 1000:.1f}ms "
                    f"max={s['max_s'] * 1000:.1f}ms"
                )
        return "\n".join(lines)


class NullMetricsRegistry(MetricsRegistry):
    """A registry that records nothing: what disabled observability
    threads through the pipeline so hot paths need no ``if obs`` forks."""

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def merge_counters(self, counters: dict[str, int], prefix: str = "") -> None:
        pass

    def absorb_cache_stats(self, name: str, stats) -> None:
        pass


NULL_REGISTRY = NullMetricsRegistry()
"""Shared no-op registry (safe to share: it never accumulates state)."""
