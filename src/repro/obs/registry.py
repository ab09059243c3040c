"""The process-wide metrics registry: one naming surface for the stack.

Before ``repro.obs`` existed the reproduction had three disjoint ad-hoc
metric surfaces: ``repro.fleet.metrics.FleetMetrics`` (service
counters/timers), ``repro.core.andersen.SolverStats`` (solver work
counts), and ``repro.core.cache.CacheStats`` (hit/miss/eviction).  The
:class:`MetricsRegistry` unifies them: counters, gauges, and histograms
under one snake_case vocabulary, with ``percentile()`` and
``counters_with_prefix()`` everywhere, absorbed from the legacy stats
objects via :meth:`absorb_solver_stats` / :meth:`absorb_cache_stats`
(the legacy classes keep their read surface — see their modules).

Metric name vocabulary (prefix -> owner):

* ``solver_*`` — points-to solver work (propagations, SCC collapses…);
* ``analysis_cache_*`` / ``trace_cache_*`` — diagnosis cache health;
* ``stage_*`` (histograms) — per-pipeline-stage wall time;
* ``jobs_*`` / ``queue_*`` — diagnosis job queue;
* ``trace_request*`` / ``agents_*`` / ``chaos_*`` — fleet service and
  resilience counters (documented in :mod:`repro.fleet.metrics`);
* ``digest_mismatches`` — fleet vs. in-process verification failures.

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

    absorb_solver_stats = absorb_stats
    absorb_check_stats = absorb_stats

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
