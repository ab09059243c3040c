"""The Snorlax server: trace collection policy + the analysis pipeline.

The server receives the first failing trace (step 1 of Figure 2), then
instructs clients to generate traces from successful executions at the
failure location (step 8), falling back to predecessor basic blocks
when the failure PC itself cannot be reached in successful runs (§4.1 —
e.g. the failure is in error-handling code).  Once enough evidence is
gathered it runs Lazy Diagnosis (steps 2-7) and returns the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from time import monotonic, perf_counter
from typing import Callable

from repro import api
from repro.api import DiagnosisResult, SchedulerPolicy
from repro.core.cache import CollectedEvidence, CollectedEvidenceCache, DiagnosisCaches
from repro.core.pipeline import LazyDiagnosis, PipelineConfig, TraceSample
from repro.core.report import DiagnosisReport
from repro.errors import DiagnosisError
from repro.ir.cfg import predecessor_chain
from repro.ir.module import Module
from repro.obs import Observability, Span, render_flight_recorder, resolve_obs
from repro.runtime.client import ClientRun, SnorlaxClient
from repro.runtime.protocol import TraceRequest, TraceResponse

TraceTransport = Callable[[TraceRequest], TraceResponse]
"""How the server reaches a client: in-process call or network hop."""

BatchTraceTransport = Callable[[list[TraceRequest]], list[TraceResponse]]
"""A transport that delivers a whole speculative wave at once and
returns positional responses — one fleet round-trip per wave."""


def sample_from_run(label: str, run: ClientRun) -> TraceSample:
    """Package one execution's trace snapshot as server-side evidence."""
    if run.snapshot is None:
        raise DiagnosisError(f"run {run.seed} has no trace snapshot")
    return TraceSample(
        label=label,
        failing=run.failed,
        buffers=dict(run.snapshot.buffers),
        positions=dict(run.snapshot.positions),
        failure=run.failure.report if run.failure else None,
        snapshot_time=run.snapshot.time,
    )


def run_trace_request(client: SnorlaxClient, request: TraceRequest) -> TraceResponse:
    """Execute one step-8 request on a client: run the seed with the
    breakpoint armed and answer with the snapshot it captured (none
    when the breakpoint never fired and the run did not fail).  A fleet
    agent sends the :meth:`~TraceResponse.shipped` form."""
    run = client.run_once(
        request.seed,
        breakpoint_uids=request.breakpoint_uids,
        breakpoint_skip=request.breakpoint_skip,
    )
    sample = None
    if run.snapshot is not None:
        sample = sample_from_run(request.label, run)
    return TraceResponse(
        label=request.label,
        outcome=run.result.outcome,
        sample=sample,
        captured=sample is not None,
    )


@dataclass(frozen=True)
class CollectionPolicy:
    """Step 8's policy, frozen.

    Collection gathers ``success_traces_wanted`` successful traces and
    gives up after ``max_collection_attempts`` executions.
    ``stopping="stable-top"`` stops early once the top-ranked pattern is
    unchanged across ``stability_window`` consecutive samples
    (``adaptive_min_traces`` is the floor, ``success_traces_wanted``
    stays the cap).  Graceful degradation: with ``deadline_s`` set,
    collection stops that many wall-clock seconds after it starts, as
    soon as ``min_success_traces`` have arrived, and the diagnosis runs
    on the evidence gathered — flagged as degraded.  ``scheduler`` is
    how the endpoints schedule the executions they trace.

    :meth:`cache_key` is derived from every field, so evidence collected
    under one policy is never replayed under another that differs in
    any field — a new field cannot be left out of the key.
    """

    success_traces_wanted: int = 10
    max_collection_attempts: int = 2000
    stopping: str = "fixed"
    stability_window: int = 3
    adaptive_min_traces: int = 4
    min_success_traces: int = 1
    deadline_s: float | None = None
    scheduler: SchedulerPolicy = field(default_factory=SchedulerPolicy)

    def __post_init__(self) -> None:
        if self.stopping not in ("fixed", "stable-top"):
            raise ValueError(
                f"unknown stopping mode {self.stopping!r} "
                "(expected 'fixed' or 'stable-top')"
            )

    def cache_key(self) -> tuple:
        """Every field's value, nested policies by their own key."""
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(
            v.cache_key() if hasattr(v, "cache_key") else v for v in values
        )


@dataclass
class ServerStats:
    failing_traces: int = 0
    success_traces: int = 0
    executions_requested: int = 0
    breakpoint_fallbacks: int = 0


@dataclass(frozen=True)
class DiagnosisSession:
    """One finished diagnosis job: the result plus how its step-8
    evidence was obtained."""

    result: DiagnosisResult
    successes: tuple[TraceSample, ...]
    attempts: int  # executions consumed (the stored count on a replay)
    # collection gave up (attempt cap or deadline) before the policy was
    # satisfied; adaptive stopping satisfied early is not degraded
    degraded: bool
    evidence_hit: bool  # the successes were replayed from the evidence cache
    spans: tuple[Span, ...] = ()  # the whole job's span subtree, when traced

    @property
    def report(self) -> DiagnosisReport:
        return self.result.report


class _CollectionState:
    """The collection policy, factored out of the transport loop.

    :meth:`speculate` derives request parameters from the attempt index
    and current breakpoint set alone, and :meth:`consume` applies
    responses in attempt order.  When consuming changes the policy state
    (breakpoint widening fired, or enough samples arrived) it returns
    True and the loop discards the rest of its speculated wave *without*
    counting those attempts — the next wave re-speculates the same
    attempt indices against the new state.  That is the whole
    evidence-equivalence argument: any window size consumed in attempt
    order, discarding on state change, gathers byte-identical samples.
    """

    def __init__(
        self,
        server: "SnorlaxServer",
        failing_uid: int,
        start_seed: int,
        stop_rule=None,
    ):
        self.server = server
        self.policy = server.policy
        self.failing_uid = failing_uid
        self.start_seed = start_seed
        self.samples: list[TraceSample] = []
        self.breakpoints = [failing_uid]
        self.attempts = 0
        self.misses_at_pc = 0
        self.widened_to = 0
        self.stop_rule = stop_rule
        deadline_s = self.policy.deadline_s
        self.deadline = None if deadline_s is None else monotonic() + deadline_s

    def speculate(self, i: int) -> TraceRequest:
        """The request for attempt index (attempts + i) — a pure function
        of policy state, so whole waves can be issued concurrently."""
        attempt = self.attempts + i
        # Vary how many executions of the failure PC pass before the
        # trace is captured: production traces come from executions of
        # arbitrary maturity, which is what lets benign occurrences of
        # near-miss interleavings show up.
        return TraceRequest(
            label=(
                f"success-{len(self.samples)}"
                if i == 0
                else f"speculative-{attempt}"
            ),
            seed=self.start_seed + attempt,
            breakpoint_uids=tuple(self.breakpoints),
            breakpoint_skip=attempt % 7,
        )

    @property
    def satisfied(self) -> bool:
        if self.stop_rule is not None and self.stop_rule.satisfied:
            return True
        return len(self.samples) >= self.policy.success_traces_wanted

    @property
    def done(self) -> bool:
        return (
            self.satisfied
            or self.attempts >= self.policy.max_collection_attempts
            or self._deadline_hit()
        )

    def _deadline_hit(self) -> bool:
        """Degrade once the deadline passes — but never below the
        minimum evidence the pipeline needs (keep trying for that)."""
        if (
            self.deadline is None
            or len(self.samples) < self.policy.min_success_traces
        ):
            return False
        return monotonic() > self.deadline

    def consume(self, request: TraceRequest, resp: TraceResponse) -> bool:
        """Apply one response; True when the rest of the wave is stale.

        A failing run is dropped, whether its sample came along (in
        process) or stayed on the client (``captured`` without a
        sample, over the wire); any other response without a sample is
        a miss."""
        server = self.server
        self.attempts += 1
        sample = resp.sample
        if sample is None and not resp.captured:
            # Only zero-skip misses hint that the PC is unreachable in
            # successful runs (e.g. failure in error-handling code); a
            # miss with skip > 0 just means the location executes fewer
            # times than we asked to wait.
            if request.breakpoint_skip == 0:
                self.misses_at_pc += 1
            if self.misses_at_pc >= 25 and len(self.breakpoints) == 1:
                self.breakpoints = server._widen_breakpoints(self.failing_uid)
                self.widened_to = len(self.breakpoints)
                # start counting misses against the widened set afresh,
                # so persistent unreachability can keep surfacing (the
                # old counter saturated after the first widening)
                self.misses_at_pc = 0
                server.stats.breakpoint_fallbacks += 1
                return True  # rest of the wave used stale breakpoints
            return False
        if sample is None or sample.failing:
            return False  # only successful executions feed step 8
        sample.label = f"success-{len(self.samples)}"
        self.samples.append(sample)
        server.stats.success_traces += 1
        if self.stop_rule is not None:
            self.stop_rule.observe(self.samples)
        return self.satisfied


class _TopPatternEvaluator:
    """The stop rule's oracle: the current top-ranked pattern signature
    for the evidence gathered so far.

    Keeps one *quiet* pipeline (``obs=None`` — no spans, no counters;
    the fleet's registry sees only the one final diagnosis) for the
    whole collection, reusing work across evaluations: each sample is
    decoded — through the server's trace cache, when it has one — and
    processed once, by the first evaluation that reads it, and the
    ranking and each sample's patterns stand while the executed scope
    does.  Each sample's first reading is observed as ``stage_decode``:
    one value per sample, covering its decode and trace processing.  A
    pure function of the sample prefix: same samples, same answer, on
    any transport.  :meth:`close` drops the pipeline when collection
    ends.
    """

    def __init__(
        self, server: "SnorlaxServer", failing_sample: TraceSample, registry
    ):
        self._failing = failing_sample
        self._registry = registry
        caches = server.caches
        self._pipeline: LazyDiagnosis | None = LazyDiagnosis(
            server.module,
            server.config,
            analysis_cache=caches.analysis if caches else None,
            trace_cache=caches.traces if caches else None,
            obs=None,
        )

    def __call__(self, successes: list[TraceSample]):
        pipeline = self._pipeline
        try:
            report = pipeline.diagnose([self._failing], successes)
        except DiagnosisError:
            return None
        finally:
            for seconds in pipeline.last_new_trace_seconds:
                self._registry.observe("stage_decode", seconds)
        if report.root_cause is None:
            return None
        return str(report.root_cause.signature)

    def close(self) -> None:
        self._pipeline = None


@dataclass
class SnorlaxServer:
    module: Module
    config: PipelineConfig = field(default_factory=PipelineConfig)
    policy: CollectionPolicy = field(default_factory=CollectionPolicy)
    # shared across diagnoses: repeat diagnoses skip decoding and
    # points-to, and sessions that name their evidence source replay
    # memoized step-8 evidence
    caches: DiagnosisCaches | None = None
    stats: ServerStats = field(default_factory=ServerStats)
    # observability context every diagnosis this server runs records into
    obs: Observability | None = None

    def diagnose(
        self, failing_run: ClientRun, client: SnorlaxClient, start_seed: int = 10_000
    ) -> DiagnosisResult:
        """The full server-side flow for one in-production failure:
        collect step-8 evidence, run the pipeline, return the bundled
        :class:`repro.api.DiagnosisResult`."""
        if failing_run.failure is None or failing_run.snapshot is None:
            raise DiagnosisError("failing run carries no failure/snapshot")
        self.stats.failing_traces += 1
        return self.run_session(
            self.sample_from_run("failure", failing_run),
            failing_run.failure.failing_uid,
            start_seed,
            send=lambda req: self.handle_trace_request(client, req),
        ).result

    def run_session(
        self,
        failing_sample: TraceSample,
        failing_uid: int,
        start_seed: int,
        send: TraceTransport | None = None,
        send_batch: BatchTraceTransport | None = None,
        *,
        source: tuple[str, int] | None = None,
        finish: Callable[[DiagnosisReport], None] | None = None,
    ) -> DiagnosisSession:
        """One diagnosis job, in process or over a fleet: collect step-8
        evidence through the transport (see :meth:`collect_traces_via`),
        run the pipeline, stamp evidence cut short as degraded, and widen
        the flight recorder to the whole ``diagnosis_job`` span.

        ``source`` — (workload id, failing seed) — names where the
        failure came from.  With ``caches`` set, a satisfied collection
        is memoized under it plus :meth:`CollectionPolicy.cache_key`
        (collection is deterministic in both), so a recurring failure
        replays its evidence instead of re-executing.  ``finish`` runs on
        the report inside the job span, before the flight recorder is
        rendered (the fleet validates there).  Collection counters and
        latency timers record into the observability registry.
        """
        obs = resolve_obs(self.obs)
        registry = obs.registry
        key = cached = None
        if self.caches is not None and source is not None:
            key = CollectedEvidenceCache.key_for(
                self.module, *source, failing_uid, start_seed,
                self.policy.cache_key(),
            )
            cached = self.caches.evidence.get(key)
        with obs.tracer.span("diagnosis_job", failing_uid=failing_uid) as job:
            with registry.timer("collection_latency"):
                if cached is not None:
                    registry.inc("evidence_cache_hits")
                    job.set(evidence_cache="hit")
                    successes = list(cached.samples)
                    attempts, degraded = cached.attempts, False
                else:
                    if key is not None:
                        registry.inc("evidence_cache_misses")
                    state = self._collect(
                        send, send_batch, failing_uid, start_seed, failing_sample
                    )
                    successes, attempts = state.samples, state.attempts
                    degraded = not state.satisfied
                    if key is not None and not degraded:
                        self.caches.evidence.put(
                            key, CollectedEvidence(tuple(successes), attempts)
                        )
            registry.inc("traces_collected", len(successes))
            if degraded:
                registry.inc("degraded_collections")
            with registry.timer("analysis_latency"):
                result = self.diagnose_samples([failing_sample], successes)
            report = result.report
            if degraded:
                report.degraded = True
                report.notes.append(
                    f"degraded collection: diagnosed from {len(successes)}/"
                    f"{self.policy.success_traces_wanted} successful traces"
                )
            if finish is not None:
                finish(report)
            job.set(collected=len(successes), degraded=degraded)
        spans: tuple[Span, ...] = ()
        if obs.enabled:
            report.flight_recorder = render_flight_recorder(obs.tracer, job)
            spans = tuple(obs.tracer.subtree(job))
        return DiagnosisSession(
            result, tuple(successes), attempts, degraded, cached is not None, spans
        )

    def diagnose_samples(
        self, failing: list[TraceSample], successes: list[TraceSample]
    ) -> DiagnosisResult:
        """Diagnose already-collected evidence through :mod:`repro.api`."""
        return api.diagnose(
            self.module,
            traces=[*failing, *successes],
            config=self.config,
            caches=self.caches,
            obs=self.obs,
        )

    def collect_successful_traces(
        self,
        client: SnorlaxClient,
        failing_uid: int,
        start_seed: int,
        failing_sample: TraceSample | None = None,
    ) -> list[TraceSample]:
        """Step 8 against an in-process client (see collect_traces_via)."""
        return self.collect_traces_via(
            lambda req: self.handle_trace_request(client, req),
            failing_uid,
            start_seed,
            failing_sample=failing_sample,
        )

    def collect_traces_via(
        self,
        send: TraceTransport | None,
        failing_uid: int,
        start_seed: int,
        send_batch: BatchTraceTransport | None = None,
        failing_sample: TraceSample | None = None,
    ) -> list[TraceSample]:
        """Step 8: successful-execution traces at the failure location.

        Tries the failure PC first; if no successful run ever reaches it,
        widens the breakpoint to predecessor blocks, nearest first.

        ``send`` delivers one :class:`TraceRequest` to a client and
        returns its :class:`TraceResponse`; ``send_batch``, when given,
        delivers a whole speculative wave in one call (the fleet fans it
        across every live agent) and replaces ``send``.  Collection is
        deterministic in (seed, breakpoints, skip), so the transport —
        and which endpoint serves each request — never changes the
        evidence gathered.

        One loop serves both transports: each wave's responses are
        consumed in attempt order through the :class:`_CollectionState`
        policy.  A single-request transport runs waves of one (no
        speculative executions); a batch transport speculates the
        derived :meth:`_batch_window`.  ``stopping="stable-top"`` ends
        collection once the top-ranked pattern is stable
        (``failing_sample`` anchors the evaluation); the stop decision is
        a pure function of the consumed sample prefix, hence
        transport-independent.

        Collection starts no thread: each sample is decoded once, on the
        calling thread, by whichever reads it first — a stop rule's
        evaluation, or else the diagnosis's trace-processing stage.
        """
        return self._collect(
            send, send_batch, failing_uid, start_seed, failing_sample
        ).samples

    def _collect(
        self,
        send: TraceTransport | None,
        send_batch: BatchTraceTransport | None,
        failing_uid: int,
        start_seed: int,
        failing_sample: TraceSample | None,
    ) -> _CollectionState:
        obs = resolve_obs(self.obs)
        policy = self.policy
        with obs.tracer.span(
            "collect_traces",
            failing_uid=failing_uid,
            wanted=policy.success_traces_wanted,
            mode="serial" if send_batch is None else "batched",
            stopping=policy.stopping,
        ) as cspan:
            stop_rule = self._make_stop_rule(failing_sample, obs.registry)
            state = _CollectionState(self, failing_uid, start_seed, stop_rule)
            window = self._batch_window
            if send_batch is None:
                send = self._traced_transport(send, obs.tracer, cspan)
                send_batch = lambda requests: [send(r) for r in requests]  # noqa: E731
                window = lambda state: 1  # noqa: E731
            started = perf_counter()
            try:
                while not state.done:
                    requests = [state.speculate(i) for i in range(window(state))]
                    for request, resp in zip(requests, send_batch(requests)):
                        if state.consume(request, resp):
                            break  # rest of the wave is stale
            finally:
                if stop_rule is not None:
                    stop_rule.evaluate.close()
            obs.registry.observe("stage_collect", perf_counter() - started)
            cspan.set(
                collected=len(state.samples),
                attempts=state.attempts,
                widened_to=state.widened_to,
            )
        return state

    def _traced_transport(
        self, send: TraceTransport, tracer, parent
    ) -> TraceTransport:
        """Wrap a transport so every step-8 round-trip becomes a
        ``trace_request`` span under the collection span."""
        if not tracer.enabled:
            return send

        def traced(request: TraceRequest) -> TraceResponse:
            with tracer.span(
                "trace_request",
                parent=parent,
                seed=request.seed,
                skip=request.breakpoint_skip,
                breakpoints=len(request.breakpoint_uids),
            ) as span:
                resp = send(request)
                if resp.sample is not None:
                    outcome = "failing" if resp.sample.failing else "ok"
                else:
                    outcome = "failing" if resp.captured else "miss"
                span.set(outcome=outcome)
            return resp

        return traced

    def _make_stop_rule(self, failing_sample: TraceSample | None, registry):
        if self.policy.stopping == "fixed" or failing_sample is None:
            # the stable-top rule evaluates candidate diagnoses, which
            # need the failing evidence — without it, count fixed
            return None
        from repro.core.statistics import StabilityStopRule

        return StabilityStopRule(
            evaluate=_TopPatternEvaluator(self, failing_sample, registry),
            window=self.policy.stability_window,
            min_samples=self.policy.adaptive_min_traces,
        )

    def _batch_window(self, state: _CollectionState) -> int:
        """How far ahead a batch transport speculates in one wave: what
        fixed counting still needs (or the stop rule's useful lookahead)
        plus margin for seeds that miss the armed breakpoint, clamped to
        the attempt cap.  The window only sizes the wave; responses are
        still consumed in attempt order, so the evidence is
        window-invariant."""
        need = max(1, self.policy.success_traces_wanted - len(state.samples))
        if state.stop_rule is not None:
            need = min(need, state.stop_rule.lookahead())
        window = need + max(2, need // 2)
        return min(window, self.policy.max_collection_attempts - state.attempts)

    def _widen_breakpoints(self, failing_uid: int) -> list[int]:
        """Predecessor-block fallback: arm earlier PCs too (§4.1)."""
        instr = self.module.instruction(failing_uid)
        block = instr.parent
        uids = [failing_uid]
        if block is not None:
            for pred in predecessor_chain(block, max_depth=4):
                if pred.instructions:
                    uids.append(pred.instructions[0].uid)
        return uids

    def sample_from_run(self, label: str, run: ClientRun) -> TraceSample:
        return sample_from_run(label, run)

    # -- message-level API (the transport collect_traces_via speaks) -------

    def handle_trace_request(
        self, client: SnorlaxClient, request: TraceRequest
    ) -> TraceResponse:
        response = run_trace_request(client, request)
        self.stats.executions_requested += 1
        return response
