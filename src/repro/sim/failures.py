"""Failure reports and execution results.

Guest failures are data, not exceptions: a crashed or deadlocked
execution returns an :class:`ExecutionResult` whose ``failure`` field
carries what a production error tracker would know — the failure kind,
the failing program counter, the failing thread, and (for crashes) the
corrupt operand value.  This mirrors the paper's step 1: "the control
flow trace ... is generated upon a failure such as a crash or a
deadlock", with the failure code coming from Ubuntu's ErrorTracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class FailureReport:
    """Base: what the client knows when an execution fails."""

    kind: str  # "crash" | "deadlock" | "hang" | "assert"
    failing_uid: int  # instruction uid where the failure surfaced
    failing_tid: int
    time: int  # virtual ns of the failure
    detail: str = ""


@dataclass(frozen=True)
class CrashReport(FailureReport):
    """A fail-stop memory error (null/dangling dereference, bad free)."""

    fault_kind: str = ""  # "null" | "unmapped" | "oob" | "use-after-free"
    fault_address: int = 0
    operand_value: int | None = None  # runtime value of the bad pointer


@dataclass(frozen=True)
class DeadlockEntry:
    """One thread's position in a deadlock cycle."""

    tid: int
    waiting_for_lock: int  # address of the lock being acquired
    held_locks: tuple[int, ...]  # addresses currently held
    instr_uid: int  # the blocked lock instruction
    since: int = 0  # virtual ns when the thread blocked (context switch)


@dataclass(frozen=True)
class DeadlockReport(FailureReport):
    cycle: tuple[DeadlockEntry, ...] = ()


@dataclass(slots=True)
class ThreadStats:
    tid: int
    instructions: int = 0
    branches: int = 0
    memory_accesses: int = 0
    lock_ops: int = 0


@dataclass
class ExecutionResult:
    """Everything one simulated run produced."""

    outcome: str  # "success" | "crash" | "deadlock" | "hang" | "assert" | "step-limit"
    duration: int  # virtual ns from start to finish/failure
    failure: FailureReport | None = None
    event_log: Any = None  # EventLog if instrumentation was on
    thread_stats: dict[int, ThreadStats] = field(default_factory=dict)
    instructions_executed: int = 0
    exit_value: Any = None

    @property
    def failed(self) -> bool:
        return self.outcome not in ("success",)

    def total_branches(self) -> int:
        return sum(s.branches for s in self.thread_stats.values())

    def summary(self) -> str:
        lines = [
            f"outcome:      {self.outcome}",
            f"duration:     {self.duration} ns ({self.duration / 1e6:.3f} ms)",
            f"instructions: {self.instructions_executed}",
            f"threads:      {len(self.thread_stats)}",
        ]
        if self.failure is not None:
            lines.append(
                f"failure:      {self.failure.kind} at uid={self.failure.failing_uid} "
                f"on T{self.failure.failing_tid} ({self.failure.detail})"
            )
        return "\n".join(lines)
