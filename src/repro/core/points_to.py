"""Hybrid points-to analysis: step 4 of Lazy Diagnosis.

"Hybrid" means the interprocedural inclusion-based analysis is *lazily
bound* to dynamic information: it runs only when a trace arrives, and
its scope is restricted to the instructions that trace shows executed
(§4.2).  Scope restriction is what turns an unscalable whole-program
analysis into one whose cost is a function of the trace size, not the
program size — the source of Table 4's speedups.

The analysis is flow-insensitive on purpose: in a multithreaded program
instructions from different threads interleave arbitrarily, so program
order proves nothing about pointer contents; flow insensitivity models
that conservatively.  Flow sensitivity is reintroduced *partially*, only
across target instructions, by bug pattern computation (§4.4) using the
trace's timing information.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.core.andersen import (
    AndersenResult,
    solve as andersen_solve,
    solve_naive as andersen_solve_naive,
)
from repro.core.cache import AnalysisCache, CachedAnalysis, module_index
from repro.core.constraints import (
    AbstractObject,
    ConstraintSystem,
    generate_constraints,
)
from repro.core.steensgaard import SteensgaardResult, solve as steensgaard_solve
from repro.ir.module import Module

_ALGORITHMS = ("andersen", "andersen-naive", "steensgaard")


@dataclass
class PointsToStats:
    scope: str  # "hybrid" | "whole-program"
    algorithm: str  # "andersen" | "steensgaard"
    instructions_total: int = 0
    instructions_analyzed: int = 0
    constraints: int = 0
    analysis_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def scope_reduction(self) -> float:
        """How many times fewer instructions than the whole program."""
        if self.instructions_analyzed == 0:
            return float(self.instructions_total) if self.instructions_total else 1.0
        return self.instructions_total / self.instructions_analyzed


class PointsToAnalysis:
    """One configured analysis over a module.

    ``executed_uids=None`` gives the eager whole-program analysis (the
    Table 4 baseline); passing the trace's executed set gives the lazy,
    scope-restricted hybrid analysis.
    """

    def __init__(
        self,
        module: Module,
        executed_uids: set[int] | None = None,
        algorithm: str = "andersen",
        cache: AnalysisCache | None = None,
        obs=None,
    ):
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown points-to algorithm {algorithm!r}")
        self.module = module
        self.executed_uids = executed_uids
        self.algorithm = algorithm
        self.cache = cache
        self.obs = obs  # Observability | None
        self.result: AndersenResult | SteensgaardResult | None = None
        self.system: ConstraintSystem | None = None
        self.stats = PointsToStats(
            scope="whole-program" if executed_uids is None else "hybrid",
            algorithm=algorithm,
        )

    def run(self) -> "PointsToAnalysis":
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        start = _time.perf_counter()
        key = None
        if self.cache is not None:
            key = AnalysisCache.key_for(
                self.module, self.executed_uids, self.algorithm
            )
            with obs.tracer.span("analysis_cache_lookup") as span:
                cached = self.cache.get(key)
                span.set(outcome="hit" if cached is not None else "miss")
            if cached is not None:
                assert isinstance(cached, CachedAnalysis)
                self.system = cached.system  # type: ignore[assignment]
                self.result = cached.result  # type: ignore[assignment]
                self.stats.extra["cache"] = "hit"
                self._finish_stats(start)
                return self
            self.stats.extra["cache"] = "miss"
        seed = None
        if self.cache is not None and self.algorithm == "andersen":
            # incremental seeding: a cached solve of a *sub-scope* of
            # this trace's executed set replays as the starting point,
            # so the worklist only derives the facts the wider scope
            # adds.
            cached_sub = self.cache.seed_candidate(
                self.module, self.executed_uids, self.algorithm
            )
            if cached_sub is not None:
                seed = cached_sub.result
                self.stats.extra["seeded"] = True
        with obs.tracer.span("generate_constraints", scope=self.stats.scope) as span:
            self.system = generate_constraints(self.module, self.executed_uids)
            span.set(instructions=self.system.instructions_analyzed)
        with obs.tracer.span("solve", algorithm=self.algorithm) as span:
            if self.algorithm == "andersen":
                self.result = andersen_solve(self.system, seed=seed)
            elif self.algorithm == "andersen-naive":
                self.result = andersen_solve_naive(self.system)
            else:
                self.result = steensgaard_solve(self.system)
            span.set(**self.result.stats.as_counters())
        obs.registry.absorb_stats(self.result.stats)
        if self.cache is not None and key is not None:
            self.cache.put(key, CachedAnalysis(self.system, self.result))
        self._finish_stats(start)
        return self

    def _finish_stats(self, start: float) -> None:
        assert self.system is not None
        self.stats.analysis_seconds = _time.perf_counter() - start
        self.stats.instructions_total = module_index(self.module).instruction_count
        self.stats.instructions_analyzed = self.system.instructions_analyzed
        self.stats.constraints = (
            len(self.system.copies)
            + len(self.system.loads)
            + len(self.system.stores)
            + sum(len(v) for v in self.system.addr_of.values())
        )

    # -- queries used by later stages --------------------------------------

    def points_to(self, value) -> frozenset[AbstractObject]:
        self._require_run()
        return self.result.points_to(value)  # type: ignore[union-attr]

    def may_alias(self, a, b) -> bool:
        self._require_run()
        return self.result.may_alias(a, b)  # type: ignore[union-attr]

    def _require_run(self) -> None:
        if self.result is None:
            raise RuntimeError("call run() before querying the analysis")
