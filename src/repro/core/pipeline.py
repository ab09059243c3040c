"""The Lazy Diagnosis pipeline: steps 2-7 of Figure 2, orchestrated.

``LazyDiagnosis`` is the server-side analysis.  Input: the failure
report plus the trace snapshots of the failing execution and of up to
10x as many successful executions collected at the failure location.
Output: a :class:`DiagnosisReport` naming the root-cause pattern — the
cross-thread order of target events — with its F1 evidence.

Every stage can be disabled through :class:`PipelineConfig`; the
Figure 7 bench uses that to measure each stage's contribution.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.core.checkpoints import checkpoint
from repro.core.patterns import (
    PatternComputation,
    compute_crash_patterns,
    compute_deadlock_patterns,
    synthesize_blocked_attempts,
)
from repro.core.points_to import PointsToAnalysis
from repro.core.report import DiagnosisReport, StageStats, describe_event
from repro.core.statistics import (
    ExecutionObservation,
    cap_successful,
    observation_breakdown,
    observe,
    score_patterns,
)
from repro.core.trace_processing import (
    ProcessedTrace,
    attach_anchor,
    process_snapshot,
)
from repro.core.type_ranking import RankedCandidate, RankingResult, rank_candidates
from repro.errors import DiagnosisError
from repro.ir.instructions import (
    Assert,
    Cast,
    FieldAddr,
    Free,
    IndexAddr,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Value
from repro.sim.failures import CrashReport, DeadlockReport, FailureReport


@dataclass
class PipelineConfig:
    scope_restriction: bool = True
    type_ranking: bool = True
    pattern_computation: bool = True
    statistical_diagnosis: bool = True
    algorithm: str = "andersen"  # or "steensgaard" (ablation)
    mtc_period_ns: int = 4096
    max_patterns: int = 256


@dataclass
class TraceSample:
    """One execution's evidence as it arrives at the server."""

    label: str
    failing: bool
    buffers: dict[int, bytes]  # tid -> snapshot bytes
    positions: dict[int, int] = field(default_factory=dict)
    failure: FailureReport | None = None
    snapshot_time: int = 0


@dataclass
class _KeptWork:
    """What a :class:`LazyDiagnosis` keeps between diagnoses of one
    failure.  Samples are keyed by identity (each entry holds its
    sample, so an id is never reused while kept).  The ranking, anchor
    points-to sets and per-sample patterns belong to ``executed``: they
    are functions of the executed scope, through the points-to result."""

    failure: FailureReport
    operands: list[Value]
    anchors: list[tuple[int, str, Value]]
    traces: dict[int, tuple[TraceSample, ProcessedTrace]] = field(
        default_factory=dict
    )
    executed: set[int] | None = None
    analysis: object = None
    ranking: RankingResult | None = None
    anchor_info: dict[int, tuple[str, frozenset]] = field(default_factory=dict)
    patterns: dict[int, PatternComputation] = field(default_factory=dict)


class LazyDiagnosis:
    """Steps 2-7 over one failure's evidence.

    The instance keeps work across :meth:`diagnose` calls on growing
    evidence of the same failure (the step-8 stop rule's evaluations):
    each sample's processed trace, and — while the executed scope, hence
    the points-to result, is unchanged — the ranking and each sample's
    pattern computation.  A call for another failure starts afresh.
    Samples must not change once diagnosed.  The report equals a fresh
    instance's.
    """

    def __init__(
        self,
        module: Module,
        config: PipelineConfig | None = None,
        analysis_cache=None,
        trace_cache=None,
        obs=None,
    ):
        self.module = module
        self.config = config or PipelineConfig()
        self.analysis_cache = analysis_cache  # AnalysisCache | None
        self.trace_cache = trace_cache  # DecodedTraceCache | None
        self.obs = obs  # Observability | None
        self._kept: _KeptWork | None = None
        self.last_root_span = None  # Span | None (when tracing is on)
        # per-diagnose() observability: cache hit/miss counts and wall
        # time per pipeline stage, consumed by the fleet metrics.
        self.last_cache_events: dict[str, int] = {}
        self.last_stage_seconds: dict[str, float] = {}
        # wall time of each sample this diagnose() processed for the
        # first time (decode plus trace processing), in sample order
        self.last_new_trace_seconds: list[float] = []

    # -- public API -----------------------------------------------------

    def diagnose(
        self, failing: list[TraceSample], successes: list[TraceSample]
    ) -> DiagnosisReport:
        self.last_new_trace_seconds = []
        if not failing:
            raise DiagnosisError("at least one failing trace is required")
        report_failure = failing[0].failure
        if report_failure is None:
            raise DiagnosisError("failing sample carries no failure report")
        from repro.obs import render_flight_recorder, resolve_obs

        obs = resolve_obs(self.obs)
        with obs.profiler() as prof:
            with obs.tracer.span(
                "diagnose",
                failure_kind=report_failure.kind,
                failing_uid=report_failure.failing_uid,
                failing_traces=len(failing),
                success_traces=len(successes),
            ) as root:
                report = self._diagnose_observed(
                    failing, successes, report_failure, obs
                )
                root.set(bug_kind=report.bug_kind, diagnosed=report.diagnosed)
        self.last_root_span = root if obs.enabled else None
        if obs.enabled:
            recorder = render_flight_recorder(obs.tracer, root)
            if prof is not None:
                root.set(**prof.summary())
                recorder += "\n" + prof.render()
            report.flight_recorder = recorder
        return report

    def _diagnose_observed(
        self,
        failing: list[TraceSample],
        successes: list[TraceSample],
        report_failure: FailureReport,
        obs,
    ) -> DiagnosisReport:
        started = _time.perf_counter()
        cfg = self.config
        tracer = obs.tracer
        self.last_cache_events = {
            "analysis_cache_hits": 0,
            "analysis_cache_misses": 0,
            "trace_cache_hits": 0,
            "trace_cache_misses": 0,
        }
        stages = self.last_stage_seconds = {}

        def close_stage(name: str, stage_start: float) -> None:
            stages[name] = _time.perf_counter() - stage_start
            obs.registry.observe(f"stage_{name}", stages[name])

        # operand recovery happens once per failure — every sample's
        # trace processing reuses the same anchors.
        kept = self._kept_for(report_failure)
        operands, anchors = kept.operands, kept.anchors
        # steps 2+3: trace processing per execution, once per sample
        new_seconds = self.last_new_trace_seconds
        with tracer.span(
            "trace_processing", samples=len(failing) + len(successes)
        ) as span:
            traces = []
            for sample in failing + successes:
                entry = kept.traces.get(id(sample))
                if entry is None:
                    sample_start = _time.perf_counter()
                    trace = self._process(sample, report_failure, anchors, tracer)
                    new_seconds.append(_time.perf_counter() - sample_start)
                    entry = kept.traces[id(sample)] = (sample, trace)
                traces.append(entry[1])
            span.set(anchors=len(anchors))
        close_stage("trace_processing", started)
        executed: set[int] = set()
        for t in traces:
            executed |= t.executed_uids
        if report_failure.kind == "deadlock" and isinstance(
            report_failure, DeadlockReport
        ):
            for entry in report_failure.cycle:
                executed.add(entry.instr_uid)
        scope = executed if cfg.scope_restriction else None
        # the kept scope-dependent work stands while the scope does
        same_scope = kept.executed == executed
        # step 4: hybrid points-to over the (restricted) scope
        stage_start = _time.perf_counter()
        with tracer.span(
            "points_to",
            scope="hybrid" if scope is not None else "whole-program",
            algorithm=cfg.algorithm,
            executed_instructions=len(executed),
        ) as span:
            if same_scope:
                analysis = kept.analysis
            else:
                analysis = PointsToAnalysis(
                    self.module, scope, cfg.algorithm,
                    cache=self.analysis_cache, obs=obs,
                ).run()
            span.set(constraints=analysis.stats.constraints)
        if not same_scope and self.analysis_cache is not None:
            outcome = analysis.stats.extra.get("cache")
            if outcome == "hit":
                self.last_cache_events["analysis_cache_hits"] += 1
            elif outcome == "miss":
                self.last_cache_events["analysis_cache_misses"] += 1
        close_stage("points_to", stage_start)
        # step 5: type-based ranking
        stage_start = _time.perf_counter()
        is_deadlock = report_failure.kind == "deadlock"
        with tracer.span("type_ranking", enabled=cfg.type_ranking) as span:
            if same_scope:
                ranking = kept.ranking
            else:
                ranking = rank_candidates(
                    self.module,
                    analysis,
                    executed,
                    operands,
                    report_failure.failing_uid,
                    include_locks=is_deadlock,
                )
                if not cfg.type_ranking:
                    ranking = _flatten_ranks(ranking)
            span.set(
                candidates=len(ranking.candidates),
                rank1_candidates=len(ranking.rank1()),
            )
        close_stage("type_ranking", stage_start)
        # step 6: per-execution bug pattern computation
        stage_start = _time.perf_counter()
        observations: list[ExecutionObservation] = []
        computations: list[PatternComputation] = []
        anchor_role = anchors[0][1] if anchors else "R"
        if same_scope:
            anchor_info = kept.anchor_info
        else:
            anchor_info = {
                uid: (role, analysis.points_to(operand))
                for uid, role, operand in anchors
            }
        if not same_scope:
            kept.executed, kept.analysis = executed, analysis
            kept.ranking, kept.anchor_info = ranking, anchor_info
            kept.patterns = {}
        with tracer.span(
            "pattern_computation", enabled=cfg.pattern_computation
        ) as span:
            if cfg.pattern_computation:
                for sample, trace in zip(failing + successes, traces):
                    comp = kept.patterns.get(id(sample))
                    if comp is None:
                        comp = kept.patterns[id(sample)] = self._compute_patterns(
                            sample, trace, ranking, anchor_info, report_failure
                        )
                    computations.append(comp)
                    observations.append(
                        observe(sample.label, sample.failing, comp)
                    )
            if tracer.enabled:
                totals = PatternComputation(
                    patterns=[p for c in computations for p in c.patterns],
                    candidates_explored=sum(
                        c.candidates_explored for c in computations
                    ),
                )
                span.set(**totals.summary())
        close_stage("pattern_computation", stage_start)
        # step 7: statistical diagnosis
        stage_start = _time.perf_counter()
        with tracer.span(
            "statistical_diagnosis", enabled=cfg.statistical_diagnosis
        ) as span:
            if cfg.statistical_diagnosis and observations:
                capped = cap_successful(observations)
                scored = score_patterns(capped)
            elif observations:
                capped = observations[: len(failing)]
                scored = score_patterns(capped)
            else:
                capped = []
                scored = []
            if tracer.enabled:
                span.set(scored=len(scored), **observation_breakdown(capped))
        close_stage("statistical_diagnosis", stage_start)
        obs.registry.merge_counters(self.last_cache_events)
        elapsed = _time.perf_counter() - started
        report = self._build_report(
            report_failure, scored, traces, ranking, computations, elapsed, anchor_role
        )
        checkpoint("pipeline.report", report=report)
        return report

    # -- stages ---------------------------------------------------------------

    def _kept_for(self, failure: FailureReport) -> _KeptWork:
        """The work kept for ``failure``; a new failure starts afresh."""
        if self._kept is None or self._kept.failure is not failure:
            operands, anchors = self._recover_operands(failure)
            self._kept = _KeptWork(failure, operands, anchors)
        return self._kept

    def _process(
        self,
        sample: TraceSample,
        failure: FailureReport,
        anchors: list[tuple[int, str, Value]],
        tracer=None,
    ) -> ProcessedTrace:
        thread_traces = {
            tid: self._decode(data, tid, tracer)
            for tid, data in sample.buffers.items()
        }
        trace = process_snapshot(sample.label, thread_traces, sample.failing)
        if (
            sample.failing
            and isinstance(failure, DeadlockReport)
            and failure.cycle
        ):
            synthesize_blocked_attempts(
                trace,
                self.module,
                [(e.tid, e.instr_uid, e.since) for e in failure.cycle],
            )
        if not isinstance(failure, DeadlockReport):
            if sample.failing:
                tid, time = failure.failing_tid, failure.time
            else:
                tid = self._stop_thread(sample, failure.failing_uid)
                time = sample.snapshot_time
                if tid is None:
                    # A fallback (predecessor-PC) snapshot: no thread was
                    # at the failure location, so there is no anchor to
                    # attach — the trace honestly shows no pattern.
                    return trace
            for uid, _role, _operand in anchors:
                attach_anchor(
                    trace, uid, tid, time, prefer_decoded=uid != failure.failing_uid
                )
        elif not sample.failing:
            tid = self._stop_thread(sample, failure.failing_uid)
            if tid is not None:
                attach_anchor(
                    trace,
                    failure.failing_uid,
                    tid,
                    sample.snapshot_time,
                    prefer_decoded=False,
                )
        checkpoint("pipeline.trace", trace=trace, sample=sample)
        return trace

    def _decode(self, data: bytes, tid: int, tracer=None):
        """Decode one PT buffer, via the shared trace cache when present."""
        if self.trace_cache is not None:
            return self.trace_cache.get_or_decode(
                self.module,
                data,
                tid,
                self.config.mtc_period_ns,
                self.last_cache_events,
                tracer=tracer,
            )
        from repro.pt.decoder import decode_thread_trace

        return decode_thread_trace(self.module, data, tid, self.config.mtc_period_ns)

    def _stop_thread(
        self, sample: TraceSample, breakpoint_uid: int
    ) -> int | None:
        # the thread whose stop position is the breakpoint PC
        for tid, uid in sample.positions.items():
            if uid and uid == breakpoint_uid:
                return tid
        return None

    def _backing_load(self, instr: Assert) -> Load | None:
        """Mini backward data-flow: the load feeding an assert condition.

        Mirrors RETracer-style operand recovery: the failing value is
        traced back to the memory read that produced it.
        """
        seen: set[int] = set()
        work: list[Value] = [instr.cond]
        while work:
            v = work.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            if isinstance(v, Load):
                return v
            if isinstance(v, Instruction):
                work.extend(v.operands)
        return None

    def _recover_operands(
        self, failure: FailureReport
    ) -> tuple[list[Value], list[tuple[int, str, Value]]]:
        """RETracer-style operand recovery.

        Returns the operand values that seed the points-to queries, and
        the anchors — (uid, access role, operand) triples — pattern
        computation runs from.  For a crash the corrupt pointer is walked backward
        through address arithmetic to the load that produced it: that
        load is a second anchor (the stale read of e.g. a published
        pointer *is* the target event of read-before-init bugs).  For an
        assert the backing load of the checked value is the anchor.
        """
        instr = self.module.instruction(failure.failing_uid)
        if isinstance(failure, DeadlockReport):
            operands: list[Value] = []
            for entry in failure.cycle:
                lock_instr = self.module.instruction(entry.instr_uid)
                pointer = lock_instr.pointer_operand()
                if pointer is not None:
                    operands.append(pointer)
            return operands, []
        if isinstance(instr, Assert):
            load = self._backing_load(instr)
            if load is not None:
                return [load.pointer], [(load.uid, "R", load.pointer)]
            return [], []
        pointer = instr.pointer_operand()
        if pointer is None:
            return [], []
        role = "W" if isinstance(instr, (Store, Free)) else "R"
        operands = [pointer]
        anchors = [(instr.uid, role, pointer)]
        chain_load = self._chain_load(pointer)
        if chain_load is not None:
            operands.append(chain_load.pointer)
            anchors.append((chain_load.uid, "R", chain_load.pointer))
        return operands, anchors

    def _chain_load(self, pointer: Value) -> Load | None:
        """Walk a pointer's def chain through address arithmetic to the
        load that produced it (the provenance of the corrupt value)."""
        v = pointer
        for _ in range(16):
            if isinstance(v, Load):
                return v
            if isinstance(v, (FieldAddr, IndexAddr, Cast)):
                v = v.operands[0]
                continue
            return None
        return None

    def _compute_patterns(
        self,
        sample: TraceSample,
        trace: ProcessedTrace,
        ranking: RankingResult,
        anchor_info: dict[int, tuple[str, frozenset]],
        failure: FailureReport,
    ) -> PatternComputation:
        if failure.kind == "deadlock":
            cycle = None
            if sample.failing and isinstance(failure, DeadlockReport):
                cycle = [(e.tid, e.instr_uid) for e in failure.cycle]
            return compute_deadlock_patterns(
                trace, ranking, cycle, self.config.max_patterns
            )
        merged = PatternComputation()
        for anchor_inst in trace.anchors:
            role, objs = anchor_info.get(anchor_inst.uid, ("R", frozenset()))
            comp = compute_crash_patterns(
                trace,
                ranking,
                role,
                self.config.max_patterns,
                anchor=anchor_inst,
                anchor_objects=objs,
            )
            merged.patterns.extend(comp.patterns)
            merged.candidates_explored += comp.candidates_explored
        return merged

    # -- report assembly ---------------------------------------------------------

    def _build_report(
        self,
        failure: FailureReport,
        scored,
        traces: list[ProcessedTrace],
        ranking: RankingResult,
        computations: list[PatternComputation],
        elapsed: float,
        anchor_role: str,
    ) -> DiagnosisReport:
        # A root cause must actually correlate with failure: a top score
        # of 0 means no pattern discriminated failing from successful
        # runs (e.g. the events interleave too finely for the trace's
        # timing to order them — §7).
        root = scored[0] if scored and scored[0].f1 > 0 else None
        bug_kind = _bug_kind(failure, root)
        report = DiagnosisReport(
            bug_kind=bug_kind,
            failing_uid=failure.failing_uid,
            root_cause=root,
            ranked_patterns=scored,
        )
        if root is None:
            # §7 fallback: report the likely-involved events unordered.
            role_by_access = {"read": "R", "write": "W", "lock": "L", "unlock": "U"}
            for cand in ranking.candidates:
                if len(report.unordered_candidates) >= 16:
                    break
                report.unordered_candidates.append(
                    describe_event(
                        self.module,
                        cand.uid,
                        role_by_access.get(cand.access, "?"),
                        0,
                    )
                )
        if root is not None:
            slots = {"a": 0, "b": 1}
            for (uid, role), slot_char in zip(
                root.signature.events, root.signature.shape
            ):
                report.target_events.append(
                    describe_event(self.module, uid, role, slots.get(slot_char, 0))
                )
        from repro.core.cache import module_index

        st = report.stage_stats
        st.program_instructions = module_index(self.module).instruction_count
        executed: set[int] = set()
        for t in traces:
            executed |= t.executed_uids
        st.executed_instructions = len(executed)
        st.alias_candidates = len(ranking.candidates)
        st.rank1_candidates = len(ranking.rank1())
        all_sigs = set()
        for comp in computations:
            all_sigs |= comp.signatures()
        st.patterns_generated = len(all_sigs)
        if scored:
            top = scored[0]
            # Count patterns still tied after the full tie-break key
            # (F1, simplicity, type rank) — the number a developer would
            # actually have to inspect manually.
            st.patterns_top_f1 = sum(
                1
                for s in scored
                if s.f1 == top.f1
                and len(s.signature.events) == len(top.signature.events)
                and s.rank == top.rank
            )
        st.analysis_seconds = elapsed
        st.candidates_explored = sum(c.candidates_explored for c in computations)
        gap = max((t.max_timing_gap for t in traces), default=0)
        report.notes.append(
            f"max gap between timing packets (incl. blocked/off-CPU spans): "
            f"{gap / 1000:.1f} us"
        )
        if not report.unambiguous and root is not None:
            report.notes.append(
                "multiple patterns tie at the top F1 score; manual inspection needed"
            )
        return report


def _flatten_ranks(ranking: RankingResult) -> RankingResult:
    """Ablation: disable type-based ranking (everything rank 2)."""
    flat = RankingResult(ranking.failing_uid, ranking.operand_type)
    flat.considered = ranking.considered
    flat.candidates = [
        RankedCandidate(c.instr, 2, c.access, c.objects) for c in ranking.candidates
    ]
    return flat


def _bug_kind(failure: FailureReport, root) -> str:
    if failure.kind == "deadlock":
        return "deadlock"
    if root is None:
        return "undiagnosed"
    kind = root.signature.kind
    if kind in ("WR", "RW", "WW"):
        return "order-violation"
    if kind in ("RWR", "WWR", "RWW", "WRW"):
        return "atomicity-violation"
    if kind == "deadlock":
        return "deadlock"
    return kind
