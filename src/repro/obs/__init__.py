"""repro.obs — end-to-end observability for the diagnosis pipeline.

Snorlax's premise is diagnosing failures *in production*; a production
system must be able to answer "where did this diagnosis spend its
19 ms, and which endpoint stalled collection?" without a debugger.
This package is that answer, threaded through every layer:

* :class:`~repro.obs.tracer.Tracer` — hierarchical span tracer
  (context-manager API, monotonic durations, thread-safe, near-zero
  cost when disabled) covering the five pipeline stages, fleet
  collection round-trips, job-queue wait, and cache lookups;
* :class:`~repro.obs.registry.MetricsRegistry` — the process-wide
  counters/gauges/histograms surface the fleet records into and the
  ``SolverStats`` / ``CacheStats`` vocabularies are absorbed into;
* :mod:`~repro.obs.exporters` — JSONL span logs, Prometheus text
  format (+ HTTP scrape endpoint), and the per-job flight recorder;
* :class:`~repro.obs.profiler.SamplingProfiler` — optional per-job
  stack sampling for hot-path attribution.

The :class:`Observability` bundle is what flows through APIs: pass one
to ``repro.api.diagnose(..., obs=...)``, ``SnorlaxServer``, or
``FleetServer`` and every layer below records into it.  ``None`` (or
:data:`NULL_OBS`) means "off" and costs nothing measurable.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.obs.dashboard import DashboardServer
from repro.obs.exporters import (
    MetricsHTTPServer,
    parse_prometheus_text,
    prometheus_text,
    read_trace_jsonl,
    render_flight_recorder,
    write_trace_jsonl,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, NullMetricsRegistry
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Span, Tracer


@dataclass
class Observability:
    """One run's observability context: tracer + registry + profiler.

    ``Observability()`` is fully on (minus profiling);
    ``Observability(profile=True)`` adds per-job stack sampling;
    :data:`NULL_OBS` (what ``obs=None`` resolves to internally) disables
    everything at near-zero cost.
    """

    tracer: Tracer = field(default_factory=Tracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    profile: bool = False
    profile_interval_s: float = 0.002

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def profiler(self):
        """Context manager for one profiled job: a live
        :class:`SamplingProfiler`, or a ``None``-yielding null context
        when profiling is off."""
        if not self.profile:
            return nullcontext(None)
        return SamplingProfiler(self.profile_interval_s)


NULL_OBS = Observability(
    tracer=NULL_TRACER, registry=NULL_REGISTRY, profile=False
)
"""The shared no-op context disabled code paths thread through."""


def resolve_obs(obs: Observability | None) -> Observability:
    """``None`` -> the shared disabled context (internal plumbing)."""
    return obs if obs is not None else NULL_OBS


__all__ = [
    "DashboardServer",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observability",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "parse_prometheus_text",
    "prometheus_text",
    "read_trace_jsonl",
    "render_flight_recorder",
    "resolve_obs",
    "write_trace_jsonl",
]
