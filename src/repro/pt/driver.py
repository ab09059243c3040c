"""The tracing driver: our stand-in for Snorlax's Intel PT kernel module.

The real driver is a 3773-LOC loadable Linux module exposing an ioctl
interface that (a) keeps a per-thread ring buffer of PT packets, (b)
saves the trace when a fail-stop event occurs, and (c) can arm a
hardware breakpoint so the trace is saved when execution reaches a given
program counter — used to collect traces from *successful* runs at a
previous failure location (Figure 2, step 8).

``PTDriver`` only manages buffers, breakpoints and snapshots, as the
real driver does: the CPU writes packets straight into each thread's
buffer.  ``start_thread`` gives the machine a thread's
:class:`ThreadEncoder` when the thread starts; the machine reports that
thread's control flow and timing to it directly, and ``end_thread``
seals it when the thread returns from its root.  The encoder's hooks
return the modeled overhead ns charged to the traced thread;
``overhead_fraction`` of a run is what Figure 8 measures.
``live_threads`` counts the started, unfinished threads, the
buffer-management term of a delay's charge (Figure 9).
``arm_breakpoint`` wires a machine breakpoint to a snapshot, including
the paper's trigger-once semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pt.decoder import ThreadTrace, decode_thread_trace
from repro.pt.encoder import EncoderStats, ThreadEncoder
from repro.pt.timing import TraceConfig


@dataclass
class TraceSnapshot:
    """One saved trace: all threads' ring contents at a single instant."""

    reason: str  # "failure" | "breakpoint" | "on-demand"
    time: int
    buffers: dict[int, bytes] = field(default_factory=dict)  # tid -> bytes
    positions: dict[int, int] = field(default_factory=dict)  # tid -> stop uid
    mtc_period_ns: int = TraceConfig.mtc_period_ns  # the tracing driver's

    def decode(
        self, module, mtc_period_ns: int | None = None
    ) -> dict[int, ThreadTrace]:
        """Decode every thread, by default at the period it was traced with."""
        period = self.mtc_period_ns if mtc_period_ns is None else mtc_period_ns
        return {
            tid: decode_thread_trace(module, data, tid, period)
            for tid, data in self.buffers.items()
        }


class PTDriver:
    def __init__(self, config: TraceConfig | None = None):
        self.config = config or TraceConfig()
        self.encoders: dict[int, ThreadEncoder] = {}
        self.live_threads = 0
        self.snapshot: TraceSnapshot | None = None

    # -- thread lifecycle -----------------------------------------------------

    def start_thread(self, tid: int, start_uid: int, time: int) -> ThreadEncoder:
        """Set up ``tid``'s ring buffer, opened with a sync point at
        ``start_uid``; the machine reports the thread's events to the
        returned encoder until :meth:`end_thread`."""
        enc = ThreadEncoder(tid, self.config)
        self.encoders[tid] = enc
        self.live_threads += 1
        enc.start(start_uid, time)  # thread creation is not charged
        return enc

    def end_thread(self, enc: ThreadEncoder, time: int) -> None:
        """Seal ``enc``'s ring: its thread returned from its root."""
        enc.end(time)
        self.live_threads -= 1

    # -- snapshots ------------------------------------------------------------

    def take_snapshot(
        self, reason: str, positions: dict[int, int], time: int
    ) -> TraceSnapshot:
        """Save every thread's ring buffer (first snapshot wins).

        ``positions`` maps tid -> current instruction uid, used as the
        FUP stop markers so the decoder ends each thread's walk exactly
        where that thread was at snapshot time.
        """
        if self.snapshot is not None:
            return self.snapshot
        snap = TraceSnapshot(reason, time, mtc_period_ns=self.config.mtc_period_ns)
        for tid, enc in self.encoders.items():
            stop = positions.get(tid, 0)
            snap.buffers[tid] = enc.snapshot_bytes(time, stop)
            snap.positions[tid] = stop
        self.snapshot = snap
        return snap

    def arm_breakpoint(
        self, machine, uid: int, reason: str = "breakpoint", skip: int = 0
    ) -> None:
        """Snapshot all buffers when ``uid`` executes.

        This is the driver's hardware-watchpoint path: the server asks a
        client to produce a trace from a successful execution at the PC
        where a failure previously occurred.  ``skip`` ignores that many
        hits first — in production the failure PC executes constantly,
        so the traces the server receives come from executions of
        arbitrary maturity, not always the very first visit.
        """
        remaining = {"skip": skip}

        def _hit(m, thread, instr):
            if remaining["skip"] > 0:
                remaining["skip"] -= 1
                return
            self.take_snapshot(reason, m.thread_positions(), m.clock.now)
            m.breakpoints.pop(uid, None)  # trigger once

        machine.breakpoints[uid] = _hit

    def stats(self) -> dict[int, EncoderStats]:
        return {tid: enc.stats for tid, enc in self.encoders.items()}


def overhead_fraction(duration_with: int, duration_without: int) -> float:
    """Relative slowdown: the quantity Figures 8 and 9 report (percent/100)."""
    if duration_without <= 0:
        return 0.0
    return (duration_with - duration_without) / duration_without
