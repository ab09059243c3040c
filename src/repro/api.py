"""repro.api — the unified front door to Lazy Diagnosis.

Every way of running a diagnosis — the in-process pipeline, the
single-machine :class:`~repro.runtime.server.SnorlaxServer`, the
networked fleet, the baseline runners — ultimately answers the same
question with the same inputs.  This module gives that question one
call shape::

    from repro.api import diagnose
    result = diagnose(module, traces=samples)       # samples carry
    print(result.report.render())                   # their failure

``diagnose`` accepts the evidence (a mixed list of failing and
successful :class:`~repro.core.pipeline.TraceSample`), partitions it,
runs the pipeline, and returns an immutable :class:`DiagnosisResult`
that bundles the report with the run's observability: per-stage wall
time, cache events, and (when tracing is on) the finished span tree.

The lower layers stay callable (``SnorlaxServer.diagnose``,
``LazyDiagnosis.diagnose`` driven directly) and funnel through this
module; the old report-only ``diagnose_failure`` shim is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pipeline import LazyDiagnosis, PipelineConfig, TraceSample
from repro.core.report import DiagnosisReport
from repro.errors import DiagnosisError
from repro.ir.module import Module
from repro.obs import Observability, Span, resolve_obs
from repro.sim.failures import FailureReport
from repro.sim.scheduler import (
    HierarchicalScheduler,
    RandomScheduler,
    Scheduler,
)


@dataclass(frozen=True)
class SchedulerPolicy:
    """A frozen description of how executions are scheduled.

    One object replaces the ``scheduler``/``mean_quantum`` kwargs that
    used to be threaded separately through the client, the fleet config
    and the evidence cache: build concrete schedulers with
    :meth:`build` (one per seed — schedulers are stateful) and key
    caches with :meth:`cache_key`.

    Kinds:

    * ``"random"`` — uniform random preemption, geometric quanta with
      mean ``mean_quantum`` (the production default).
    * ``"hierarchical"`` — schedsi-style two-level scheduling: threads
      pinned to ``vcpus`` virtual CPUs, round-robin within a vcpu,
      timeslices of ``slice_picks`` picks with slice inheritance.
    * ``"rr"`` — deterministic round-robin, quantum 1.

    ``cache_key()`` for the default policy is ``("random", 24)`` —
    byte-compatible with the tuple the evidence cache keyed on before
    this type existed, so a fleet upgraded in place keeps its cache.
    """

    kind: str = "random"
    mean_quantum: int = 24
    vcpus: int = 2  # hierarchical only
    slice_picks: int = 4  # hierarchical only

    def __post_init__(self) -> None:
        if self.kind not in ("random", "hierarchical", "rr"):
            raise ValueError(
                f"unknown scheduler kind {self.kind!r}; expected "
                "'random', 'hierarchical' or 'rr'"
            )
        if self.mean_quantum < 1:
            raise ValueError("mean_quantum must be >= 1")
        if self.vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if self.slice_picks < 1:
            raise ValueError("slice_picks must be >= 1")

    def build(self, seed: int) -> Scheduler:
        """A fresh scheduler for one execution."""
        if self.kind == "random":
            return RandomScheduler(seed, self.mean_quantum)
        if self.kind == "hierarchical":
            return HierarchicalScheduler(
                seed, self.vcpus, self.mean_quantum, self.slice_picks
            )
        return Scheduler(seed)

    def cache_key(self) -> tuple:
        """The policy's contribution to evidence-cache keys: everything
        that changes how the same seeds interleave."""
        if self.kind == "random":
            return ("random", self.mean_quantum)
        if self.kind == "hierarchical":
            return (
                "hierarchical", self.mean_quantum, self.vcpus,
                self.slice_picks,
            )
        return ("rr",)


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen runnable scenario: a program builder, its seed-indexed
    workload, and the scheduling policy it runs under.

    This is the shape the programmatic generators in
    :mod:`repro.corpus.scenarios` produce — everything a client or a
    check stage needs to execute and diagnose a concurrency scenario,
    in one hashable object (``builder`` and ``workload`` compare by
    identity, like any callable)."""

    name: str
    builder: object  # Callable[[], Module]
    workload: object  # Callable[[int], tuple]
    entry: str = "main"
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)

    def module(self) -> Module:
        module = self.builder()
        if not module.finalized:
            module.finalize()
        return module

    def client(self, **kwargs):
        """A :class:`~repro.runtime.client.SnorlaxClient` wired to this
        scenario's module, workload, entry and policy."""
        from repro.runtime.client import SnorlaxClient

        return SnorlaxClient(
            self.module(),
            self.workload,
            entry=self.entry,
            policy=self.policy,
            **kwargs,
        )


@dataclass(frozen=True)
class DiagnosisRequest:
    """One diagnosis question, frozen: the module, the evidence, and the
    analysis knobs.  ``traces`` mixes failing and successful samples;
    the pipeline partitions them by :attr:`TraceSample.failing`."""

    module: Module
    traces: tuple[TraceSample, ...]
    scope: bool = True
    algorithm: str = "andersen"
    failure: FailureReport | None = None

    @property
    def failing(self) -> tuple[TraceSample, ...]:
        return tuple(t for t in self.traces if t.failing)

    @property
    def successes(self) -> tuple[TraceSample, ...]:
        return tuple(t for t in self.traces if not t.failing)


@dataclass(frozen=True)
class DiagnosisResult:
    """A finished diagnosis: the report plus the run's observability."""

    request: DiagnosisRequest
    report: DiagnosisReport
    stage_seconds: dict[str, float]
    cache_events: dict[str, int]
    # the finished span tree of this run (root first), when tracing was on
    spans: tuple[Span, ...] = ()

    @property
    def diagnosed(self) -> bool:
        return self.report.diagnosed

    @property
    def root_cause(self):
        return self.report.root_cause

    def render(self) -> str:
        return self.report.render()


def diagnose(
    module: Module,
    failure: FailureReport | None = None,
    traces: Sequence[TraceSample] = (),
    *,
    scope: bool = True,
    algorithm: str = "andersen",
    config: PipelineConfig | None = None,
    caches=None,
    obs: Observability | None = None,
    validate: bool = False,
    workload=None,
    entry: str = "main",
    failing_seed: int | None = None,
) -> DiagnosisResult:
    """Run Lazy Diagnosis over ``traces`` and return the bundled result.

    ``failure`` is optional when the failing sample already carries its
    :class:`FailureReport` (the normal case — snapshots arrive with the
    report attached); pass it explicitly to diagnose raw evidence.
    ``config`` overrides ``scope``/``algorithm`` wholesale when given.
    ``caches`` is a :class:`~repro.core.cache.DiagnosisCaches`; ``obs`` an
    :class:`~repro.obs.Observability` bundle, ``None`` for off.

    ``validate=True`` closes the loop: the diagnosed order is compiled
    into a directed reproducer schedule and replayed — forced and
    inverse — on ``workload(failing_seed)``, stamping
    ``result.report.validation`` (see :mod:`repro.validate`).  Both
    ``workload`` and ``failing_seed`` are required for validation.
    """
    samples = tuple(traces)
    failing = [t for t in samples if t.failing]
    successes = [t for t in samples if not t.failing]
    if not failing:
        raise DiagnosisError("at least one failing trace is required")
    if failure is not None and failing[0].failure is None:
        failing[0].failure = failure
    effective = config or PipelineConfig(
        scope_restriction=scope, algorithm=algorithm
    )
    pipeline = LazyDiagnosis(
        module,
        effective,
        analysis_cache=caches.analysis if caches else None,
        trace_cache=caches.traces if caches else None,
        obs=obs,
    )
    report = pipeline.diagnose(failing, successes)
    if validate:
        if workload is None or failing_seed is None:
            raise DiagnosisError(
                "diagnose(validate=True) needs the workload and the "
                "failing seed to replay the reproducer schedule"
            )
        from repro.validate import validate_report

        validate_report(
            module, workload, report, entry=entry, failing_seed=failing_seed
        )
    request = DiagnosisRequest(
        module=module,
        traces=samples,
        scope=effective.scope_restriction,
        algorithm=effective.algorithm,
        failure=failing[0].failure,
    )
    return result_from_pipeline(request, pipeline, report, obs)


def result_from_pipeline(
    request: DiagnosisRequest,
    pipeline: LazyDiagnosis,
    report: DiagnosisReport,
    obs: Observability | None,
) -> DiagnosisResult:
    """Bundle a finished pipeline run (however it was driven) into the
    public result shape — the server and fleet reuse this."""
    resolved = resolve_obs(obs)
    spans: tuple[Span, ...] = ()
    if resolved.enabled and pipeline.last_root_span is not None:
        spans = tuple(resolved.tracer.subtree(pipeline.last_root_span))
    return DiagnosisResult(
        request=request,
        report=report,
        stage_seconds=dict(pipeline.last_stage_seconds),
        cache_events=dict(pipeline.last_cache_events),
        spans=spans,
    )
