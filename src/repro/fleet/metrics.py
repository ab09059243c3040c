"""Fleet observability: the service-counter vocabulary.

``FleetMetrics`` is now a thin, read-compatible alias of
:class:`repro.obs.MetricsRegistry` — the process-wide registry the whole
stack (solver, caches, pipeline stages, fleet service) records into
under one snake_case naming convention.  Everything the fleet ever
exposed (``inc``/``gauge``/``observe``/``timer``, ``counter``,
``timings``, ``median``, ``percentile``, ``counters_with_prefix``,
``as_dict``, ``render``) lives on the registry; this module keeps the
name the server, job queue, simulation, and existing callers import,
plus the documentation of the fleet's counter vocabulary.

Service counters:

* ``failures_received`` / ``diagnoses_completed`` / ``jobs_*`` — the
  intake funnel (submitted, deduplicated, rejected, completed, failed);
* ``trace_requests_sent`` / ``trace_responses_received`` /
  ``traces_collected`` — step-8 collection volume;
* ``analysis_cache_*`` / ``trace_cache_*`` — cache health (unified with
  :class:`~repro.core.cache.CacheStats`);
* ``solver_*`` — points-to solver work absorbed from
  :class:`~repro.core.andersen.SolverStats`;
* ``digest_mismatches`` — fleet digests that diverged from the
  in-process diagnosis (the simulation's correctness tripwire).

Resilience counter vocabulary (all zero on a polite network):

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

Always-on monitoring counter vocabulary:

* ``heartbeats_received`` — liveness beacons from monitor loops;
* ``monitor_samples_received`` / ``monitor_failures_seen`` — sampled
  executions streamed by monitor loops, and how many carried failures;
* ``anomaly_triggers`` — detector trips that started (or fetched) a
  diagnosis unprompted; ``anomaly_rejected`` counts trips bounced by
  queue backpressure (the detector re-trips next window);
* ``evidence_graphs_built`` — provenance DAGs recorded for finished
  diagnoses (queryable via the dashboard's ``/api/evidence``);
* ``chaos_*`` — faults the simulation's :class:`FaultPlan` injected
  (``chaos_corrupted``, ``chaos_dropped``, ``chaos_truncated``,
  ``chaos_crashes``, ``chaos_delayed``, ``chaos_inbound_corrupted``).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


class FleetMetrics(MetricsRegistry):
    """Read-compatible alias of :class:`repro.obs.MetricsRegistry`.

    Kept so existing imports and isinstance checks keep working; new
    code should construct :class:`repro.obs.MetricsRegistry` directly
    (an ``Observability`` bundle carries one).
    """
