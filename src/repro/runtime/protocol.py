"""Client/server message types.

The real Snorlax speaks over the network; here the messages are plain
dataclasses so tests can exercise the protocol surface (what the server
may ask of a client, what a client may reply) without sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pipeline import TraceSample


@dataclass(frozen=True)
class TraceRequest:
    """Server -> client: produce a trace at these PCs (step 8).

    ``breakpoint_skip`` asks the client to let that many executions of
    the breakpoint PC pass before snapshotting, so collected traces come
    from executions of varying maturity (see §4.1 and
    ``SnorlaxServer.collect_successful_traces``).
    """

    label: str
    seed: int
    breakpoint_uids: Sequence[int] = ()
    breakpoint_skip: int = 0


@dataclass
class TraceResponse:
    """Client -> server: the run's outcome and (maybe) a trace sample.

    ``captured`` says the run took a snapshot: its breakpoint fired, or
    it failed.  Step 8 consumes successful executions only (§4.1), so a
    failing run's snapshot is not evidence; over the wire it stays on
    the client (:meth:`shipped`), and the server reads ``captured``
    without a sample as a failing run, not as a miss.
    """

    label: str
    outcome: str
    sample: TraceSample | None = None
    captured: bool = False

    def shipped(self) -> "TraceResponse":
        """This response as an agent sends it: without a failing run's
        sample, which the server would only drop."""
        if self.sample is None or not self.sample.failing:
            return self
        return TraceResponse(self.label, self.outcome, None, captured=True)


@dataclass(frozen=True)
class FailureNotification:
    """Client -> server: an in-production failure occurred (step 1)."""

    bug_hint: str
    failing_uid: int
    failing_tid: int
    time: int
