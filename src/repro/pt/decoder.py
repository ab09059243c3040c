"""Trace decoder: byte stream -> executed instructions with time bounds.

This is our equivalent of Intel's stock PT decoder plus the binary-to-IR
mapping Snorlax does on the server.  Decoding re-walks the module's CFG
one straight-line run at a time (``Module.walk``): straight-line code,
direct calls and unconditional branches are reconstructed statically;
conditional branches consume TNT bits; indirect calls and uncompressed
returns consume TIPs; MTC/TSC packets advance the time bound.

The packets are :func:`~repro.pt.packets.lex`'s flat tuples
``(kind, offset, value, count)``, an MTC run being one tuple, and the
walker dispatches on their int kind: no packet object is built on the
decode path.  One timing step (``_Walker._tick``) applies every MTC run
and TSC, and one look-ahead (``_Walker._peek_control``) finds the next
control packet for the return and blocking-op decisions.

The output is a :class:`ThreadTrace` of run records: each straight-line
run the walk took, with the ``[t_lo, t_hi)`` interval every instruction
of the run shares — the *partial order* of §4.1: two dynamic
instructions are ordered iff their intervals do not overlap.  Interval
width equals the gap between adjacent timing packets, which is what
makes the coarse interleaving hypothesis operational: gaps between
target events (>= 91 us in the study) dwarf the interval width
(~ the MTC period).  Runs stay compressed; per-instruction
:class:`DynamicInstruction` values are made only for the uids analysis
asks about (``ProcessedTrace.instances``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import IRError, TraceDecodeError
from repro.ir.instructions import (
    BarrierWait,
    Br,
    Call,
    CondBr,
    CondWait,
    Delay,
    Join,
    Lock,
    Ret,
    RwRdLock,
    RwWrLock,
    SemWait,
)
from repro.ir.module import Module
from repro.ir.values import FunctionRef
from repro.pt.packets import (
    K_FUP,
    K_MTC,
    K_PSB,
    K_TIP,
    K_TNT,
    K_TSC,
    KIND_NAMES,
    find_psb,
    lex,
)

_MAX_DECODED = 10_000_000

# Instructions that may context-switch the thread out: the encoder marks
# the blocked span as a FUP(uid) ... TIP(resume) region, exactly like a
# contended mutex.
_BLOCKING_OPS = (Lock, Join, CondWait, RwRdLock, RwWrLock, SemWait, BarrierWait)

# What ends a straight-line run: the one control decision the walk makes
# after emitting it (see _walk_entry).
_COND, _BR, _RET, _CALL, _DELAY, _BLOCKING = range(6)


def _walk_entry(module: Module, start: int) -> tuple:
    """The walk-table entry for ``start``: ``(uids, instr, kind, succ)``.

    ``uids`` runs from ``start`` through the next control instruction
    ``instr`` of its block; ``kind`` and ``succ`` are its
    :func:`_decision`.  Raises :class:`IRError` for a uid that names no
    instruction, exactly like :meth:`Module.instruction`.
    """
    first = module.instruction(start)
    block = first.parent
    assert block is not None
    uids = []
    for instr in block.instructions[first.block_index :]:
        uids.append(instr.uid)
        decision = _decision(instr)
        if decision is not None:
            return (tuple(uids), instr, *decision)
    raise IRError(f"block uid={block.uid} has no terminator")


def _decision(instr) -> tuple | None:
    """``(kind, succ)`` for a control instruction, None for straight-line
    code.  ``succ`` holds the successor uids that need no packet: a
    conditional branch's (taken, not-taken) entries, a branch's target,
    a call's (resume, direct callee's entry or None), a blocking op's
    fall-through."""
    if isinstance(instr, CondBr):
        return _COND, (_first_uid(instr.then_block), _first_uid(instr.else_block))
    if isinstance(instr, Br):
        return _BR, (_first_uid(instr.target),)
    if isinstance(instr, Ret):
        return _RET, ()
    if isinstance(instr, Call):
        callee = instr.callee
        entry = (
            _first_uid(callee.function.entry)
            if isinstance(callee, FunctionRef)
            else None
        )
        return _CALL, (_next_in_block(instr), entry)
    if isinstance(instr, Delay):
        return _DELAY, ()
    if isinstance(instr, _BLOCKING_OPS):
        return _BLOCKING, (_next_in_block(instr),)
    return None  # including Spawn: the child has its own trace


def _first_uid(block) -> int:
    return block.instructions[0].uid


def _next_in_block(instr) -> int:
    return instr.parent.instructions[instr.block_index + 1].uid


class DynamicInstruction(NamedTuple):
    """One decoded execution of an instruction.

    A named tuple: the decoder builds one per executed instruction, and
    a tuple is cheap to construct and small.  Equality and hash are by
    value.
    """

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


# A decoded straight-line run: ``(uids, t_lo, t_hi, seq0)``.  Every uid
# of the run shares the interval; the k-th has seq ``seq0 + k``.
Run = tuple[tuple[int, ...], int, int, int]


@dataclass
class ThreadTrace:
    tid: int
    # In program order.  ``uids`` is the walk-table tuple ``Module.walk``
    # shares between runs (a slice of it where the stop uid splits one).
    runs: list[Run] = field(default_factory=list)
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

    @property
    def next_seq(self) -> int:
        """The seq after the last decoded instruction (0 when none)."""
        if not self.runs:
            return 0
        uids, _t_lo, _t_hi, seq0 = self.runs[-1]
        return seq0 + len(uids)

    @property
    def instructions(self) -> list[DynamicInstruction]:
        """Every decoded instruction, expanded in program order.

        A fresh list on each call, for goldens and tests; analysis reads
        the runs through ``ProcessedTrace.instances``.
        """
        tid = self.tid
        return [
            DynamicInstruction(uid, tid, seq0 + k, t_lo, t_hi)
            for uids, t_lo, t_hi, seq0 in self.runs
            for k, uid in enumerate(uids)
        ]


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
    packets = lex(data, sync)
    if not packets:
        trace.desync = True
        return trace
    # The snapshot suffix is TSC + FUP(stop): strip it as the stop marker.
    if len(packets) >= 2 and packets[-1][0] == K_FUP and packets[-2][0] == K_TSC:
        trace.stop_uid = packets[-1][2]
        trace.end_time = packets[-2][2]
        del packets[-2:]
    walker = _Walker(module, packets, trace, mtc_period_ns)
    walker.run()
    if trace.end_time:
        trace.timing.add(trace.end_time)
    return trace


class _Truncated(Exception):
    """Internal: the packet stream ended while dynamic info was needed."""


def _desync(wanted: str, pkt: tuple) -> TraceDecodeError:
    return TraceDecodeError(
        f"desync: wanted {wanted}, got {KIND_NAMES[pkt[0]]} at offset {pkt[1]}"
    )


class _Walker:
    """Walks the module's CFG along :func:`lex`'s packet tuples
    ``(kind, offset, value, count)``, dispatching on the int ``kind``."""

    def __init__(
        self,
        module: Module,
        packets: list[tuple],
        trace: ThreadTrace,
        mtc_period_ns: int,
    ):
        self.module = module
        self.packets = packets
        self.trace = trace
        self.idx = 0
        self.pos: int | None = None  # uid the walk starts at (PSB anchor)
        self.stack: list[int] = []  # return positions (uids)
        self.bits: deque[bool] = deque()
        self.t_lo = 0
        self.last_period: int | None = None
        self.period_guess = mtc_period_ns
        # Two-stage upper bounds: a control packet *seals* the records
        # decoded before it (they executed before that control event);
        # the next timing packet *closes* sealed records (the control
        # event, and hence they, happened before that tick).
        # One record per straight-line run: (uids, t_lo).  No packet is
        # consumed inside straight-line code, so every instruction of a
        # run shares both bounds.  A close is one (end, t_hi) entry: the
        # records from the previous close's end up to ``end`` get t_hi.
        self._first_open = 0  # first record not yet closed
        self._first_unsealed = 0  # first record not yet sealed
        self._records: list[tuple[tuple[int, ...], int]] = []
        self._closes: list[tuple[int, int]] = []

    # -- packet stream ----------------------------------------------------

    def _pull(self) -> tuple | None:
        """Consume the next control packet, handling timing and PSBs.

        Instructions decoded so far executed before the control packet
        returned here, hence before any timing packet that preceded it in
        the stream: closing the epoch at the latest such timing value is
        the tightest *sound* upper bound the trace supports.  Timing
        packets between two control packets never bound the straight-line
        instructions between them (no control event separates them).
        """
        packets = self.packets
        while self.idx < len(packets):
            pkt = packets[self.idx]
            self.idx += 1
            kind = pkt[0]
            if kind <= K_TSC:
                self._tick(pkt)
            elif kind == K_PSB:
                # A cadence PSB while the walk is in sync: decode straight
                # through it.  Its TSC updates timing, its FUP anchor is
                # redundant (we know the position), but the encoder reset
                # its return-compression state here, so returns of frames
                # pushed before this point will arrive as TIPs (see the
                # return case of _walk).
                self._skip_psb_header()
            else:
                self._first_unsealed = len(self._records)  # seal
                return pkt
        return None

    def _peek_control(self) -> tuple | None:
        """The next control packet, consuming nothing.

        Timing packets are skipped, and so is each PSB together with its
        anchor FUP: a cadence sync point, not a region marker.  Nothing
        is processed, so an uncontended lock/join (which emits nothing)
        leaves the stream untouched.
        """
        packets = self.packets
        skip_fup = False
        for i in range(self.idx, len(packets)):
            pkt = packets[i]
            kind = pkt[0]
            if kind <= K_TSC:
                continue
            if kind == K_PSB:
                skip_fup = True
            elif skip_fup and kind == K_FUP:
                skip_fup = False
            else:
                return pkt
        return None

    def _tick(self, pkt: tuple) -> None:
        """The one timing step: apply an MTC run or a TSC."""
        if pkt[0] == K_MTC:
            self._on_mtc(pkt)
        else:
            self._on_time(pkt[2], exact=True)

    def _skip_psb_header(self) -> None:
        """Consume the TSC + FUP that follow a mid-stream PSB."""
        packets = self.packets
        while self.idx < len(packets):
            kind = packets[self.idx][0]
            if kind <= K_TSC:
                self._tick(packets[self.idx])
            elif kind == K_FUP:
                self.idx += 1
                return
            else:
                return
            self.idx += 1

    def _close_sealed(self, time: int) -> None:
        # t_lo never decreases and a closing time is never below it, so
        # ``time`` bounds every sealed record from above, and successive
        # closes never decrease.
        if self._first_open < self._first_unsealed:
            self._closes.append((self._first_unsealed, time))
            self._first_open = self._first_unsealed

    def _on_mtc(self, pkt: tuple) -> None:
        # Counter is the low 8 bits of (time // period).  The period is
        # not in the stream; we infer absolute time by tracking the
        # period index implied by the last TSC/MTC.  A run's first tick
        # may jump any distance (1..256 periods); each later one steps by
        # exactly one, so the run is ticks first .. first + count - 1.
        _kind, _offset, counter, count = pkt
        self.trace.timing_packets += count
        if self.last_period is None:
            # MTC before any TSC: unusable for absolute time; skip.
            return
        delta = (counter - (self.last_period & 0xFF)) & 0xFF
        if delta == 0:
            delta = 256
        first = self.last_period + delta
        self.last_period = first + count - 1
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
        packets = self.packets
        time: int | None = None
        anchor: int | None = None
        while self.idx < len(packets) and (time is None or anchor is None):
            pkt = packets[self.idx]
            self.idx += 1
            kind = pkt[0]
            if kind == K_TSC and time is None:
                time = pkt[2]
                self._tick(pkt)
            elif kind == K_FUP and anchor is None:
                anchor = pkt[2]
            elif kind == K_MTC:
                self._tick(pkt)
            else:
                raise TraceDecodeError(
                    f"malformed PSB header: unexpected {KIND_NAMES[kind]} packet"
                )
        if anchor is None:
            raise _Truncated
        self.pos = anchor or None

    def _next_bit(self) -> bool:
        while not self.bits:
            pkt = self._pull()
            if pkt is None:
                raise _Truncated
            if pkt[0] != K_TNT:  # a TIP or FUP
                raise _desync("TNT", pkt)
            self.bits.extend(pkt[2])
            self.trace.control_events += pkt[3]
        return self.bits.popleft()

    def _next_tip(self) -> int:
        if self.bits:
            raise TraceDecodeError("desync: pending TNT bits at a TIP boundary")
        pkt = self._pull()
        if pkt is None:
            raise _Truncated
        if pkt[0] != K_TIP:
            raise _desync("TIP", pkt)
        self.trace.control_events += 1
        return pkt[2]

    # -- walking ------------------------------------------------------------

    def run(self) -> None:
        try:
            self._resync_at_start()
        except (_Truncated, TraceDecodeError):
            self.trace.desync = True
            return
        try:
            self._walk()
        except _Truncated:
            pass
        self._finish()

    def _resync_at_start(self) -> None:
        # The stream begins with PSB (guaranteed by find_psb); consume it.
        if self.packets[self.idx][0] != K_PSB:
            raise TraceDecodeError("decode must start at a PSB")
        self.idx += 1
        self._resync()
        if self.trace.timing.count:
            self.trace.start_time = self.trace.timing.first

    def _walk(self) -> None:
        """Walk one straight-line run per step until the stop or the end.

        A step emits the run as one record, then takes the run's single
        control decision: a TNT bit, a TIP, a region or a return.  When
        the snapshot's stop uid lies inside the run, the run is split
        there: the prefix is emitted, the stop test drains trailing
        timing packets, and the suffix (if the walk goes on) becomes a
        record of its own at the possibly newer ``t_lo``.
        """
        module = self.module
        walk = module.walk
        records = self._records
        executed = self.trace.executed_uids
        stack = self.stack
        bits = self.bits
        stop = self.trace.stop_uid  # 0 is no uid, so never in a run
        budget = _MAX_DECODED
        pos = self.pos
        while pos is not None:
            entry = walk.get(pos)
            if entry is None:
                entry = walk[pos] = _walk_entry(module, pos)
            uids, instr, kind, succ = entry
            budget -= len(uids)
            if budget <= 0:
                raise TraceDecodeError("decode budget exceeded (runaway walk)")
            if stop in uids:
                split = uids.index(stop)
                if split:
                    records.append((uids[:split], self.t_lo))
                    executed.update(uids[:split])
                if self._at_stop():
                    return
                uids = uids[split:]
            records.append((uids, self.t_lo))
            executed.update(uids)
            if kind == _COND:
                taken = bits.popleft() if bits else self._next_bit()
                pos = succ[0] if taken else succ[1]
            elif kind == _BR:
                pos = succ[0]
            elif kind == _CALL:
                resume, callee = succ
                if callee is None:
                    callee = self._next_tip()
                stack.append(resume)
                pos = callee
            elif kind == _RET:
                if not stack:
                    pos = self._next_tip() or None
                elif bits or self._next_is(K_TNT):
                    # TNT-compressed by the encoder: its bit is queued or
                    # sits in the next TNT packet, and must be taken.  The
                    # test synchronizes itself: the encoder's compression
                    # state resets at PSBs, which the walk may pass late,
                    # and an uncompressed return is announced by a TIP.
                    if not (bits.popleft() if bits else self._next_bit()):
                        raise TraceDecodeError("desync: compressed return bit is 0")
                    pos = stack.pop()
                else:
                    # the call predates the encoder's last compression reset
                    # (a PSB): its return arrives as an uncompressed TIP that
                    # must agree with our tracked resume position
                    tip = self._next_tip()
                    expected = stack.pop()
                    if tip != expected:
                        raise TraceDecodeError(
                            f"desync: return TIP {tip} != stacked resume {expected}"
                        )
                    pos = tip
            elif kind == _DELAY or self._next_is(K_FUP, instr.uid):
                # A work region, or a blocking op that blocked (a context
                # switch): FUP(uid) ... MTC ticks ... TIP(resume).
                pos = self._consume_region(instr.uid)
            else:  # a blocking op that did not block
                pos = succ[0]

    def _next_is(self, kind: int, value=None) -> bool:
        """Is the next control packet of this ``kind`` (and ``value``)?"""
        pkt = self._peek_control()
        return pkt is not None and pkt[0] == kind and (value is None or pkt[2] == value)

    def _at_stop(self) -> bool:
        """At the stop uid: has the walk reached the snapshot's end?"""
        # A run of pure timing packets may trail the last control event
        # (MTCs emitted while the thread slept); drain them so the stop
        # test below sees whether any *control* information remains.
        packets = self.packets
        while self.idx < len(packets) and packets[self.idx][0] <= K_TSC:
            self._tick(packets[self.idx])
            self.idx += 1
        # Only stop when no dynamic information remains: a loop can
        # revisit the stop position with packets still queued.
        return self.idx >= len(packets) and not self.bits

    def _consume_region(self, uid: int) -> int:
        """Consume FUP(uid) ... TIP(resume); return the resume uid."""
        pkt = self._pull()
        if pkt is None:
            raise _Truncated
        if pkt[0] != K_FUP or pkt[2] != uid:
            raise TraceDecodeError(
                f"desync: wanted region FUP({uid}), got {KIND_NAMES[pkt[0]]} at {pkt[1]}"
            )
        tip = self._pull()
        if tip is None:
            raise _Truncated  # blocked forever (e.g. a deadlocked lock)
        if tip[0] != K_TIP:
            raise TraceDecodeError(
                f"desync: wanted region TIP, got {KIND_NAMES[tip[0]]} at {tip[1]}"
            )
        self.trace.control_events += 1
        return tip[2]

    def _finish(self) -> None:
        """Resolve each run record's final bounds and number its uids."""
        trace = self.trace
        records = self._records
        runs = trace.runs
        seq = 0
        start = 0
        latest = 0
        for close_end, t_hi in self._closes:
            for uids, t_lo in records[start:close_end]:
                runs.append((uids, t_lo, t_hi, seq))
                seq += len(uids)
            start = close_end
            latest = t_hi
        # records no timing packet closed end with the snapshot
        end = trace.end_time or self.t_lo
        for uids, t_lo in records[start:]:
            t_hi = end if end > t_lo else t_lo
            if t_hi > latest:
                latest = t_hi
            runs.append((uids, t_lo, t_hi, seq))
            seq += len(uids)
        if not trace.end_time and runs:
            trace.end_time = latest


def executed_set(traces: list[ThreadTrace]) -> set[int]:
    """Union of executed instruction uids across per-thread traces."""
    uids: set[int] = set()
    for t in traces:
        uids |= t.executed_uids
    return uids
