"""Target-event instrumentation.

The coarse-interleaving-hypothesis study (paper §3.2) instruments the
*target instructions* of each bug with ``clock_gettime()`` calls and
measures the elapsed time between them.  :class:`EventLog` is our
equivalent: the machine records a timestamped :class:`TargetEvent` each
time a watched instruction executes.  Lazy Diagnosis itself never sees
this log — it only sees PT-like traces — so the log doubles as ground
truth when validating diagnosis output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class TargetEvent:
    """One dynamic execution of a watched instruction."""

    uid: int  # instruction uid
    tid: int  # executing thread
    time: int  # virtual ns at which the instruction executed
    kind: str  # "read" | "write" | "lock" | "unlock" | "other"
    address: int | None = None  # accessed memory address, if any

    def __str__(self) -> str:
        addr = f" @0x{self.address:x}" if self.address is not None else ""
        return f"[t={self.time}ns T{self.tid}] uid={self.uid} {self.kind}{addr}"


class EventLog:
    """An append-only, time-ordered log of target events."""

    def __init__(self, watched: Iterable[int] = ()):
        self.watched: set[int] = set(watched)
        self.events: list[TargetEvent] = []

    def record(self, event: TargetEvent) -> None:
        self.events.append(event)

    def first(self, uid: int) -> TargetEvent | None:
        for e in self.events:
            if e.uid == uid:
                return e
        return None

    def last(self, uid: int) -> TargetEvent | None:
        found = None
        for e in self.events:
            if e.uid == uid:
                found = e
        return found

    def gaps(self, uids: list[int]) -> list[int] | None:
        """Elapsed ns between consecutive events of the given uid sequence.

        Matches the paper's ΔT measurements: for ``[u1, u2]`` returns one
        gap (order violations / deadlocks); for ``[u1, u2, u3]`` returns
        two gaps (ΔT1, ΔT2 of atomicity violations).  Uses the first
        occurrence of each uid at or after the previous event's time.
        Returns None if the sequence did not occur in order.
        """
        gaps: list[int] = []
        t_prev: int | None = None
        for uid in uids:
            candidates = [e for e in self.events if e.uid == uid]
            if t_prev is not None:
                candidates = [e for e in candidates if e.time >= t_prev]
            if not candidates:
                return None
            chosen = min(candidates, key=lambda e: e.time)
            if t_prev is not None:
                gaps.append(chosen.time - t_prev)
            t_prev = chosen.time
        return gaps

    def __iter__(self) -> Iterator[TargetEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
