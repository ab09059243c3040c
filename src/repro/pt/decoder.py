"""Trace decoder: byte stream -> executed instructions with time bounds.

This is our equivalent of Intel's stock PT decoder plus the binary-to-IR
mapping Snorlax does on the server.  Decoding re-walks the module's CFG:
straight-line code, direct calls and unconditional branches are
reconstructed statically; conditional branches consume TNT bits;
indirect calls and uncompressed returns consume TIPs; MTC/TSC packets
advance the time bound.

The output is a :class:`ThreadTrace` whose dynamic instructions carry
``[t_lo, t_hi)`` intervals — the *partial order* of §4.1: two dynamic
instructions are ordered iff their intervals do not overlap.  Interval
width equals the gap between adjacent timing packets, which is what
makes the coarse interleaving hypothesis operational: gaps between
target events (>= 91 us in the study) dwarf the interval width
(~ the MTC period).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import TraceDecodeError
from repro.ir.instructions import (
    BarrierWait,
    Br,
    Call,
    CondBr,
    CondWait,
    Delay,
    Instruction,
    Join,
    Lock,
    Ret,
    RwRdLock,
    RwWrLock,
    SemWait,
    Spawn,
)

# Instructions that may context-switch the thread out: the encoder marks
# the blocked span as a FUP(uid) ... TIP(resume) region, exactly like a
# contended mutex.
_BLOCKING_OPS = (Lock, Join, CondWait, RwRdLock, RwWrLock, SemWait, BarrierWait)
from repro.ir.module import Module
from repro.ir.values import FunctionRef
from repro.pt.packets import (
    FupPacket,
    MtcRunPacket,
    Packet,
    PsbPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    find_psb,
    parse_runs,
)

_MAX_DECODED = 10_000_000


@dataclass(frozen=True)
class DynamicInstruction:
    """One decoded execution of an instruction."""

    uid: int
    tid: int
    seq: int  # per-thread decode order
    t_lo: int  # earliest possible execution time (ns)
    t_hi: int  # latest possible execution time (ns)

    def interval(self) -> tuple[int, int]:
        return (self.t_lo, self.t_hi)

    def before(self, other: "DynamicInstruction") -> bool:
        """Strictly ordered: this interval ends before the other begins.

        Same-thread instructions are additionally ordered by sequence
        (program order is exact within a thread)."""
        if self.tid == other.tid:
            return self.seq < other.seq
        return self.t_hi <= other.t_lo


@dataclass
class TimingSummary:
    """The timing values a decode accepted, as running figures.

    Consumers need only the first value, the last, and the longest gap
    between neighbours, so the decoder keeps those instead of every tick
    (the compressed-trace view of *Data Race Detection on Compressed
    Traces*): an MTC run adds one jump gap plus one period in O(1).
    Values arrive in non-decreasing order.
    """

    first: int = 0
    last: int = 0
    count: int = 0
    max_gap: int = 0

    def add(self, time: int) -> None:
        self.add_run(time, 1, 0)

    def add_run(self, first: int, count: int, period: int) -> None:
        """Accept the ``count`` values ``first, first + period, ...``."""
        if self.count:
            self.max_gap = max(self.max_gap, first - self.last)
        else:
            self.first = first
        if count > 1:
            self.max_gap = max(self.max_gap, period)
        self.count += count
        self.last = first + (count - 1) * period


@dataclass
class ThreadTrace:
    tid: int
    instructions: list[DynamicInstruction] = field(default_factory=list)
    executed_uids: set[int] = field(default_factory=set)
    start_time: int = 0
    end_time: int = 0
    stop_uid: int = 0
    timing: TimingSummary = field(default_factory=TimingSummary)
    control_events: int = 0
    timing_packets: int = 0
    truncated: bool = False  # decode began after ring wraparound
    desync: bool = False  # no PSB found; nothing decoded

    def max_timing_gap(self) -> int:
        """Longest gap between adjacent timing packets (paper: 65 us)."""
        return self.timing.max_gap


def decode_thread_trace(
    module: Module, data: bytes, tid: int, mtc_period_ns: int = 4096
) -> ThreadTrace:
    """Decode one thread's snapshot bytes against its module.

    ``mtc_period_ns`` is sideband information, like the CTC frequency a
    real PT decoder reads from CPUID: the stream itself only carries
    8-bit MTC counters.
    """
    trace = ThreadTrace(tid)
    sync = find_psb(data)
    if sync < 0:
        trace.desync = True
        return trace
    trace.truncated = sync > 0
    packets = list(parse_runs(data, sync))
    if not packets:
        trace.desync = True
        return trace
    # The snapshot suffix is TSC + FUP(stop): strip it as the stop marker.
    if isinstance(packets[-1], FupPacket) and len(packets) >= 2 and isinstance(
        packets[-2], TscPacket
    ):
        trace.stop_uid = packets[-1].uid
        trace.end_time = packets[-2].time
        packets = packets[:-2]
    walker = _Walker(module, packets, trace, mtc_period_ns)
    walker.run()
    if trace.end_time:
        trace.timing.add(trace.end_time)
    return trace


class _Resync(Exception):
    """Internal: a PSB was encountered; restart walking at its anchor."""


class _Truncated(Exception):
    """Internal: the packet stream ended while dynamic info was needed."""


class _Walker:
    def __init__(
        self,
        module: Module,
        packets: list[Packet],
        trace: ThreadTrace,
        mtc_period_ns: int,
    ):
        self.module = module
        self.packets = packets
        self.trace = trace
        self.idx = 0
        self.pos: int | None = None  # uid of next instruction to walk
        self.stack: list[int] = []  # return positions (uids)
        self.bits: deque[bool] = deque()
        self.seq = 0
        self.t_lo = 0
        self.last_period: int | None = None
        self.period_guess = mtc_period_ns
        # Two-stage upper bounds: a control packet *seals* the records
        # decoded before it (they executed before that control event);
        # the next timing packet *closes* sealed records (the control
        # event, and hence they, happened before that tick).
        self._first_open = 0  # first record not yet closed
        self._first_unsealed = 0  # first record not yet sealed
        self._records: list[list[int]] = []  # [uid, t_lo, t_hi]

    # -- packet stream ----------------------------------------------------

    def _pull(self) -> Packet | None:
        """Consume the next packet, handling timing and PSB resync.

        Instructions decoded so far executed before the control packet
        returned here, hence before any timing packet that preceded it in
        the stream: closing the epoch at the latest such timing value is
        the tightest *sound* upper bound the trace supports.  Timing
        packets between two control packets never bound the straight-line
        instructions between them (no control event separates them).
        """
        while self.idx < len(self.packets):
            pkt = self.packets[self.idx]
            self.idx += 1
            if isinstance(pkt, MtcRunPacket):
                self._on_mtc(pkt)
                continue
            if isinstance(pkt, TscPacket):
                self._on_time(pkt.time, exact=True)
                continue
            if isinstance(pkt, PsbPacket):
                # A cadence PSB while the walk is in sync: decode straight
                # through it.  Its TSC updates timing, its FUP anchor is
                # redundant (we know the position), but the encoder reset
                # its return-compression state here, so returns of frames
                # pushed before this point will arrive as TIPs: remember
                # the compression floor.
                self._skip_psb_header()
                continue
            self._seal()
            return pkt
        return None

    def _skip_psb_header(self) -> None:
        """Consume the TSC + FUP that follow a mid-stream PSB."""
        while self.idx < len(self.packets):
            pkt = self.packets[self.idx]
            if isinstance(pkt, MtcRunPacket):
                self._on_mtc(pkt)
            elif isinstance(pkt, TscPacket):
                self._on_time(pkt.time, exact=True)
            elif isinstance(pkt, FupPacket):
                self.idx += 1
                return
            else:
                return
            self.idx += 1

    def _seal(self) -> None:
        self._first_unsealed = len(self._records)

    def _close_sealed(self, time: int) -> None:
        for rec in self._records[self._first_open : self._first_unsealed]:
            rec[2] = max(time, rec[1])
        self._first_open = self._first_unsealed

    def _on_mtc(self, pkt: MtcRunPacket) -> None:
        # Counter is the low 8 bits of (time // period).  The period is
        # not in the stream; we infer absolute time by tracking the
        # period index implied by the last TSC/MTC.  A run's first tick
        # may jump any distance (1..256 periods); each later one steps by
        # exactly one, so the run is ticks first .. first + count - 1.
        self.trace.timing_packets += pkt.count
        if self.last_period is None:
            # MTC before any TSC: unusable for absolute time; skip.
            return
        delta = (pkt.counter - (self.last_period & 0xFF)) & 0xFF
        if delta == 0:
            delta = 256
        first = self.last_period + delta
        self.last_period = first + pkt.count - 1
        period = self.period_guess
        if not period:
            return
        # ticks below t_lo carry no information; the first one at or
        # above it closes the sealed records, later ones only raise t_lo
        first = max(first, -(-self.t_lo // period))
        if first > self.last_period:
            return
        self._close_sealed(first * period)
        self.t_lo = self.last_period * period
        self.trace.timing.add_run(first * period, self.last_period - first + 1, period)

    def _on_time(self, time: int, exact: bool) -> None:
        if exact:
            self.trace.timing_packets += 1
            if self.period_guess:
                self.last_period = time // self.period_guess
        if time < self.t_lo:
            return
        self._close_sealed(time)
        self.t_lo = time
        self.trace.timing.add(time)

    def _resync(self) -> None:
        """PSB: read the TSC + FUP anchor that follows and reset state."""
        self.stack = []
        self.bits.clear()
        time: int | None = None
        anchor: int | None = None
        while self.idx < len(self.packets) and (time is None or anchor is None):
            pkt = self.packets[self.idx]
            self.idx += 1
            if isinstance(pkt, TscPacket) and time is None:
                time = pkt.time
                self._on_time(time, exact=True)
            elif isinstance(pkt, FupPacket) and anchor is None:
                anchor = pkt.uid
            elif isinstance(pkt, MtcRunPacket):
                self._on_mtc(pkt)
            else:
                raise TraceDecodeError(
                    f"malformed PSB header: unexpected {pkt.kind} packet"
                )
        if anchor is None:
            raise _Truncated
        self.pos = anchor or None

    def _next_bit(self) -> bool:
        while not self.bits:
            pkt = self._pull()
            if pkt is None:
                raise _Truncated
            if isinstance(pkt, TntPacket):
                self.bits.extend(pkt.bits)
                self.trace.control_events += len(pkt.bits)
            elif isinstance(pkt, (TipPacket, FupPacket)):
                raise TraceDecodeError(
                    f"desync: wanted TNT, got {pkt.kind} at offset {pkt.offset}"
                )
        return self.bits.popleft()

    def _next_tip(self) -> int:
        if self.bits:
            raise TraceDecodeError("desync: pending TNT bits at a TIP boundary")
        pkt = self._pull()
        if pkt is None:
            raise _Truncated
        if not isinstance(pkt, TipPacket):
            raise TraceDecodeError(
                f"desync: wanted TIP, got {pkt.kind} at offset {pkt.offset}"
            )
        self.trace.control_events += 1
        return pkt.uid

    # -- walking ------------------------------------------------------------

    def run(self) -> None:
        try:
            self._resync_at_start()
        except (_Truncated, TraceDecodeError):
            self.trace.desync = True
            return
        budget = _MAX_DECODED
        while self.pos is not None:
            budget -= 1
            if budget <= 0:
                raise TraceDecodeError("decode budget exceeded (runaway walk)")
            try:
                if not self._walk_one():
                    break
            except _Resync:
                continue
            except _Truncated:
                break
        self._finish()

    def _resync_at_start(self) -> None:
        # The stream begins with PSB (guaranteed by find_psb); consume it.
        pkt = self.packets[self.idx]
        if not isinstance(pkt, PsbPacket):
            raise TraceDecodeError("decode must start at a PSB")
        self.idx += 1
        self._resync()
        if self.trace.timing.count:
            self.trace.start_time = self.trace.timing.first

    def _walk_one(self) -> bool:
        """Walk a single instruction; False means decoding is complete."""
        assert self.pos is not None
        instr = self.module.instruction(self.pos)
        if self._at_stop(instr):
            return False
        if isinstance(instr, CondBr):
            self._emit(instr)
            taken = self._next_bit()
            target = instr.then_block if taken else instr.else_block
            self.pos = target.instructions[0].uid
            return True
        if isinstance(instr, Br):
            self._emit(instr)
            self.pos = instr.target.instructions[0].uid
            return True
        if isinstance(instr, Ret):
            self._emit(instr)
            if self.stack and self._ret_compressed():
                bit = self._next_bit()  # compressed return: a taken bit
                if not bit:
                    raise TraceDecodeError("desync: compressed return bit is 0")
                self.pos = self.stack.pop()
                return True
            if self.stack:
                # the call predates the encoder's last compression reset
                # (a PSB): its return arrives as an uncompressed TIP that
                # must agree with our tracked resume position
                tip = self._next_tip()
                expected = self.stack.pop()
                if tip != expected:
                    raise TraceDecodeError(
                        f"desync: return TIP {tip} != stacked resume {expected}"
                    )
                self.pos = tip
                return True
            self.pos = self._next_tip() or None
            return self.pos is not None
        if isinstance(instr, Call):
            self._emit(instr)
            resume = self._next_in_block(instr)
            if instr.is_direct:
                assert isinstance(instr.callee, FunctionRef)
                self.stack.append(resume)
                self.pos = instr.callee.function.entry.instructions[0].uid
                return True
            target = self._next_tip()
            self.stack.append(resume)
            self.pos = target
            return True
        if isinstance(instr, Delay):
            # A work region: FUP(entry) ... MTC ticks ... TIP(resume).
            self._emit(instr)
            self._consume_region(instr.uid)
            return True
        if isinstance(instr, _BLOCKING_OPS):
            self._emit(instr)
            if self._peek_region(instr.uid):
                # The operation blocked: a context-switch region follows.
                self._consume_region(instr.uid)
                return True
            self.pos = self._next_in_block(instr)
            return True
        # Everything else (including Spawn: the child has its own trace)
        self._emit(instr)
        self.pos = self._next_in_block(instr)
        return True

    def _at_stop(self, instr: Instruction) -> bool:
        """True when the walk has reached the snapshot stop marker."""
        if self.trace.stop_uid == 0:
            return False
        if instr.uid != self.trace.stop_uid:
            return False
        # A run of pure timing packets may trail the last control event
        # (MTCs emitted while the thread slept); drain them so the stop
        # test below sees whether any *control* information remains.
        while self.idx < len(self.packets):
            pkt = self.packets[self.idx]
            if isinstance(pkt, MtcRunPacket):
                self._on_mtc(pkt)
            elif isinstance(pkt, TscPacket):
                self._on_time(pkt.time, exact=True)
            else:
                break
            self.idx += 1
        # Only stop when no dynamic information remains: a loop can
        # revisit the stop position with packets still queued.
        return self.idx >= len(self.packets) and not self.bits

    def _ret_compressed(self) -> bool:
        """Was this return TNT-compressed by the encoder?

        Self-synchronizing test (the encoder's compression state resets
        at PSBs, which the walker may process at a slight lag): a
        compressed return's bit is already queued or sits in the next
        TNT packet; an uncompressed return is announced by a TIP.
        """
        if self.bits:
            return True
        i = self.idx
        skip_fup = False
        while i < len(self.packets):
            pkt = self.packets[i]
            if isinstance(pkt, (MtcRunPacket, TscPacket)):
                i += 1
                continue
            if isinstance(pkt, PsbPacket):
                skip_fup = True
                i += 1
                continue
            if skip_fup and isinstance(pkt, FupPacket):
                skip_fup = False
                i += 1
                continue
            return isinstance(pkt, TntPacket)
        return False

    def _peek_region(self, uid: int) -> bool:
        """Is the next control packet a FUP marking this instruction?

        Peeks without processing timing packets, so an uncontended
        lock/join (which emits nothing) leaves the stream untouched.
        """
        i = self.idx
        skip_fup = False
        while i < len(self.packets):
            pkt = self.packets[i]
            if isinstance(pkt, (MtcRunPacket, TscPacket)):
                i += 1
                continue
            if isinstance(pkt, PsbPacket):
                # cadence sync point: its anchor FUP is not a region marker
                skip_fup = True
                i += 1
                continue
            if skip_fup and isinstance(pkt, FupPacket):
                skip_fup = False
                i += 1
                continue
            return isinstance(pkt, FupPacket) and pkt.uid == uid
        return False

    def _consume_region(self, uid: int) -> None:
        """Consume FUP(uid) ... TIP(resume), repositioning at the resume."""
        pkt = self._pull()
        if pkt is None:
            raise _Truncated
        if not isinstance(pkt, FupPacket) or pkt.uid != uid:
            raise TraceDecodeError(
                f"desync: wanted region FUP({uid}), got {pkt.kind} at {pkt.offset}"
            )
        tip = self._pull()
        if tip is None:
            raise _Truncated  # blocked forever (e.g. a deadlocked lock)
        if not isinstance(tip, TipPacket):
            raise TraceDecodeError(
                f"desync: wanted region TIP, got {tip.kind} at {tip.offset}"
            )
        self.trace.control_events += 1
        self.pos = tip.uid

    def _next_in_block(self, instr: Instruction) -> int:
        block = instr.parent
        assert block is not None
        return block.instructions[instr.block_index + 1].uid

    def _emit(self, instr: Instruction) -> None:
        self._records.append([instr.uid, self.t_lo, -1])
        self.trace.executed_uids.add(instr.uid)

    def _finish(self) -> None:
        end = self.trace.end_time or (self.t_lo if self.t_lo else 0)
        tid = self.trace.tid
        out = self.trace.instructions
        for seq, rec in enumerate(self._records):
            t_hi = rec[2] if rec[2] != -1 else end
            if t_hi < rec[1]:
                t_hi = rec[1]
            out.append(DynamicInstruction(rec[0], tid, seq, rec[1], t_hi))
        if not self.trace.end_time and out:
            self.trace.end_time = max(d.t_hi for d in out)


def executed_set(traces: list[ThreadTrace]) -> set[int]:
    """Union of executed instruction uids across per-thread traces."""
    uids: set[int] = set()
    for t in traces:
        uids |= t.executed_uids
    return uids
