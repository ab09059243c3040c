"""The check-run driver: allocate cases to stages, run, shrink, report.

A run is deterministic in ``(seed, cases, stages)``: stage allocation
and every per-case seed derive from one master RNG.  Failures are
shrunk and written to the output directory; the run's counters and
per-case spans flow through an :class:`repro.obs.Observability` bundle
so a check run is observable exactly like a fleet run
(``check_*`` counter vocabulary, ``check_case`` spans).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.cases import CheckCase
from repro.check.shrink import shrink_case, write_reproducer
from repro.check.stages import CaseSkipped, StageSpec, resolve_stages
from repro.obs import Observability, resolve_obs

DEFAULT_OUT_DIR = "benchmarks/out/check-failures"


@dataclass
class CaseFailure:
    original: CheckCase
    shrunk: CheckCase
    error: str
    reproducer: Path | None


@dataclass
class CheckStats:
    cases: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    seconds: float = 0.0
    by_stage: dict[str, int] = field(default_factory=dict)
    failures: list[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_counters(self, prefix: str = "check_") -> dict[str, int]:
        """The unified ``check_*`` counter vocabulary (see
        :meth:`repro.obs.MetricsRegistry.absorb_stats`)."""
        counters = {
            f"{prefix}cases": self.cases,
            f"{prefix}passed": self.passed,
            f"{prefix}failed": self.failed,
            f"{prefix}skipped": self.skipped,
        }
        for stage, n in sorted(self.by_stage.items()):
            counters[f"{prefix}stage_{stage}_cases"] = n
        return counters

    def render(self) -> str:
        per_stage = " ".join(
            f"{stage}:{n}" for stage, n in sorted(self.by_stage.items())
        )
        lines = [
            f"checked {self.cases} cases in {self.seconds:.1f}s "
            f"({per_stage})",
            f"passed {self.passed}, failed {self.failed}, "
            f"skipped {self.skipped}",
        ]
        for f in self.failures:
            lines.append(f"FAIL {f.shrunk.describe()}")
            lines.append(f"     {f.error}")
            if f.reproducer is not None:
                lines.append(f"     reproducer: {f.reproducer}")
        return "\n".join(lines)


def run_case(spec: StageSpec, case: CheckCase) -> BaseException | None:
    """One case; returns its failure (None = passed), CaseSkipped
    propagates."""
    try:
        spec.run(case)
    except CaseSkipped:
        raise
    except BaseException as exc:  # noqa: BLE001 — every failure counts
        return exc
    return None


def run_check(
    cases: int = 200,
    seed: int = 0,
    stages: list[str] | None = None,
    out_dir: str | Path = DEFAULT_OUT_DIR,
    shrink: bool = True,
    max_failures: int = 5,
    obs: Observability | None = None,
    progress=None,
    overrides: dict[str, int] | None = None,
) -> CheckStats:
    """Run ``cases`` randomized cases across the selected stages.

    Stops collecting new failures after ``max_failures`` (each one is
    shrunk, which re-runs the stage many times).  ``progress`` is an
    optional ``callable(i, case)`` for CLI feedback.  ``overrides``
    pins generation knobs (e.g. the ``primitives`` bitmask from
    ``--primitives``); a stage only picks up the knobs it declares in
    its defaults.
    """
    specs = resolve_stages(stages)
    master = random.Random(seed)
    resolved = resolve_obs(obs)
    stats = CheckStats()
    started = time.perf_counter()
    weights = [s.weight for s in specs]
    for i in range(cases):
        spec = master.choices(specs, weights=weights)[0]
        params = dict(spec.defaults)
        if overrides:
            params.update(
                {k: v for k, v in overrides.items() if k in spec.defaults}
            )
        case = CheckCase(
            stage=spec.name,
            seed=master.randrange(1 << 30),
            params=params,
        )
        if progress is not None:
            progress(i, case)
        stats.cases += 1
        stats.by_stage[spec.name] = stats.by_stage.get(spec.name, 0) + 1
        with resolved.tracer.span(
            "check_case", stage=spec.name, case_seed=case.seed
        ) as span:
            try:
                error = run_case(spec, case)
            except CaseSkipped:
                stats.skipped += 1
                span.set(outcome="skipped")
                continue
            if error is None:
                stats.passed += 1
                span.set(outcome="passed")
                continue
            stats.failed += 1
            span.set(outcome="failed", error=type(error).__name__)
        shrunk, final_error = case, error
        if shrink:
            try:
                shrunk, final_error = shrink_case(
                    case, spec.run, spec.minimums
                )
            except ValueError:
                # flaky under re-run (e.g. a timing-sensitive queue
                # case); keep the original as the reproducer
                pass
        reproducer = write_reproducer(out_dir, shrunk, final_error)
        stats.failures.append(
            CaseFailure(
                original=case,
                shrunk=shrunk,
                error=f"{type(final_error).__name__}: {final_error}",
                reproducer=reproducer,
            )
        )
        if stats.failed >= max_failures:
            break
    stats.seconds = time.perf_counter() - started
    resolved.registry.absorb_stats(stats)
    return stats


def replay(path: str | Path) -> BaseException | None:
    """Re-run a reproducer file; returns its failure, None if fixed."""
    from repro.check.stages import STAGES

    case = CheckCase.from_json(Path(path).read_text())
    spec = STAGES[case.stage]
    try:
        return run_case(spec, case)
    except CaseSkipped as skip:
        return skip
