"""The tracing driver: our stand-in for Snorlax's Intel PT kernel module.

The real driver is a 3773-LOC loadable Linux module exposing an ioctl
interface that (a) keeps a per-thread ring buffer of PT packets, (b)
saves the trace when a fail-stop event occurs, and (c) can arm a
hardware breakpoint so the trace is saved when execution reaches a given
program counter — used to collect traces from *successful* runs at a
previous failure location (Figure 2, step 8).

``PTDriver`` implements the machine's :class:`TraceDriver` protocol.
``arm_breakpoint`` wires a machine breakpoint to a snapshot, including
the paper's trigger-once semantics.  All hooks return the modeled
overhead ns charged to the traced thread; ``overhead_fraction`` of a
run is what Figure 8 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
    def __init__(self, config: TraceConfig | None = None, enabled: bool = True):
        self.config = config or TraceConfig()
        self.enabled = enabled
        self.encoders: dict[int, ThreadEncoder] = {}
        self.live_threads = 0
        self.snapshot: TraceSnapshot | None = None
        self.total_overhead_ns = 0

    # -- TraceDriver protocol ----------------------------------------------

    def on_thread_start(self, tid: int, start_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        enc = ThreadEncoder(tid, self.config)
        self.encoders[tid] = enc
        self.live_threads += 1
        return self._charge(enc.start(start_uid, time))

    def on_cond_branch(self, tid: int, taken: bool, target_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].cond_branch(taken, target_uid, time))

    def on_indirect_call(self, tid: int, target_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].indirect_call(target_uid, time))

    def on_call(self, tid: int, callee_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].call(callee_uid, time))

    def on_ret(self, tid: int, resume_uid: int | None, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].ret(resume_uid, time))

    def on_br(self, tid: int, target_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].br(target_uid, time))

    def on_work(
        self, tid: int, instr_uid: int, resume_uid: int, start: int, duration: int
    ) -> int:
        if not self.enabled:
            return 0
        return self._charge(
            self.encoders[tid].work(
                instr_uid, resume_uid, start, duration, self.live_threads
            )
        )

    def on_block(self, tid: int, instr_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].block(instr_uid, time))

    def on_wake(self, tid: int, resume_uid: int, time: int) -> int:
        if not self.enabled:
            return 0
        return self._charge(self.encoders[tid].wake(resume_uid, time))

    def on_thread_end(self, tid: int, time: int) -> None:
        if not self.enabled:
            return
        enc = self.encoders.get(tid)
        if enc is not None:
            enc.end(time)
        self.live_threads = max(0, self.live_threads - 1)

    # -- snapshots ------------------------------------------------------------

    def take_snapshot(
        self, reason: str, positions: dict[int, int], time: int
    ) -> TraceSnapshot | None:
        """Save every thread's ring buffer (first snapshot wins).

        ``positions`` maps tid -> current instruction uid, used as the
        FUP stop markers so the decoder ends each thread's walk exactly
        where that thread was at snapshot time.
        """
        if not self.enabled:
            return None
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

    # -- accounting ----------------------------------------------------------

    @property
    def snapshots(self) -> dict[int, bytes]:
        """tid -> bytes of the saved snapshot (empty if none taken)."""
        return dict(self.snapshot.buffers) if self.snapshot else {}

    @property
    def metadata(self) -> dict[str, Any]:
        if not self.snapshot:
            return {}
        return {
            "reason": self.snapshot.reason,
            "time": self.snapshot.time,
            "positions": dict(self.snapshot.positions),
        }

    def stats(self) -> dict[int, EncoderStats]:
        return {tid: enc.stats for tid, enc in self.encoders.items()}

    def total_trace_bytes(self) -> int:
        return sum(enc.stats.total_bytes for enc in self.encoders.values())

    def _charge(self, ns: int) -> int:
        self.total_overhead_ns += ns
        return ns


def overhead_fraction(duration_with: int, duration_without: int) -> float:
    """Relative slowdown: the quantity Figures 8 and 9 report (percent/100)."""
    if duration_without <= 0:
        return 0.0
    return (duration_with - duration_without) / duration_without
