"""The Snorlax client: runs the production program under tracing.

One client owns a module plus a workload (a seed-indexed argument
generator, modelling the varying requests a production system serves).
Each ``run_once`` boots a fresh machine with PT-like tracing enabled,
optionally arms a driver breakpoint (for collecting successful traces
at a previous failure location, step 8 of Figure 2), and returns the
execution result together with the trace snapshot and failure code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api import SchedulerPolicy
from repro.ir.module import Module
from repro.pt.driver import PTDriver, TraceSnapshot
from repro.pt.timing import TraceConfig
from repro.runtime.errortracker import FailureCode, classify
from repro.sim.clock import CostModel
from repro.sim.failures import ExecutionResult
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler

Workload = Callable[[int], tuple]
"""seed -> arguments for the program's entry function."""


@dataclass
class ClientRun:
    seed: int
    result: ExecutionResult
    failure: FailureCode | None
    snapshot: TraceSnapshot | None
    driver: PTDriver | None  # None when the client runs untraced

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class SnorlaxClient:
    module: Module
    workload: Workload
    entry: str = "main"
    trace_config: TraceConfig = field(default_factory=TraceConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    tracing: bool = True
    max_steps: int = 20_000_000
    # how this client's machines schedule threads; part of the
    # collection policy, so caches key on policy.cache_key() (see
    # CollectedEvidenceCache)
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)

    def run_once(
        self,
        seed: int,
        breakpoint_uids: Sequence[int] = (),
        watch_uids: set[int] | None = None,
        breakpoint_skip: int = 0,
        scheduler: Scheduler | None = None,
    ) -> ClientRun:
        """One production execution.

        ``breakpoint_uids`` — PCs at which the driver snapshots the
        trace (the server's step-8 request); the first one reached wins.
        ``breakpoint_skip`` ignores that many hits first, so collected
        traces come from executions of varying maturity.  On failure the
        driver snapshots at the failure point regardless.
        """
        driver = PTDriver(self.trace_config) if self.tracing else None
        machine = Machine(
            self.module,
            scheduler=scheduler or self.policy.build(seed),
            cost_model=self.cost_model,
            trace_driver=driver,
            watch_uids=watch_uids,
            max_steps=self.max_steps,
        )
        if driver is not None:
            for uid in breakpoint_uids:
                driver.arm_breakpoint(machine, uid, skip=breakpoint_skip)
        result = machine.run(self.entry, self.workload(seed))
        failure = classify(result)
        snapshot = None
        if driver is not None:
            snapshot = driver.snapshot
            if failure is not None and snapshot is None:
                # fail-stop: the driver saves the trace at the failure
                snapshot = driver.take_snapshot(
                    "failure", machine.thread_positions(), machine.clock.now
                )
        return ClientRun(seed, result, failure, snapshot, driver)

    def run_untraced(
        self, seed: int, scheduler: Scheduler | None = None
    ) -> ExecutionResult:
        """Baseline run without any tracing (for overhead measurements,
        and for repro.validate's directed replays)."""
        machine = Machine(
            self.module,
            scheduler=scheduler or self.policy.build(seed),
            cost_model=self.cost_model,
            max_steps=self.max_steps,
        )
        return machine.run(self.entry, self.workload(seed))

    def find_runs(
        self,
        want_failing: bool,
        count: int,
        start_seed: int = 0,
        max_attempts: int = 5000,
        breakpoint_uids: Sequence[int] = (),
    ) -> list[ClientRun]:
        """Scan seeds for failing (or successful) executions.

        Mirrors the paper's §3.2 methodology: no artificial delays are
        injected to raise reproduction probability; programs are simply
        run repeatedly (they needed up to a few thousand runs).
        """
        found: list[ClientRun] = []
        seed = start_seed
        attempts = 0
        while len(found) < count and attempts < max_attempts:
            run = self.run_once(seed, breakpoint_uids=breakpoint_uids)
            if run.failed == want_failing:
                found.append(run)
            seed += 1
            attempts += 1
        return found
