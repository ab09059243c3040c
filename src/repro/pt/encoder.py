"""Per-thread trace packetizer.

One ``ThreadEncoder`` per traced thread turns the machine's control-flow
callbacks into packet bytes in that thread's ring buffer.  It reproduces
the information loss of real PT:

* only *dynamic* control decisions are recorded — conditional branches
  as TNT bits, indirect calls and uncompressed returns as TIPs; straight
  -line code, direct calls and compressed returns cost zero bytes;
* timing arrives only at MTC-period boundaries (plus full TSCs when the
  stream was silent long enough for the 8-bit MTC counter to be
  ambiguous);
* the ring buffer drops the oldest bytes; PSB + TSC + TIP sync points
  every ``psb_interval_bytes`` let the decoder re-anchor, and return
  compression state resets at each PSB (as in real PT) so decoding
  after a wrap stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pt.packets import (
    TNT_MAX_BITS,
    encode_fup,
    encode_mtc_run,
    encode_psb,
    encode_tip,
    encode_tnt,
    encode_tsc,
)
from repro.pt.ringbuffer import RingBuffer
from repro.pt.timing import TraceConfig


@dataclass
class EncoderStats:
    control_packets: int = 0
    timing_packets: int = 0
    sync_packets: int = 0
    control_bytes: int = 0
    timing_bytes: int = 0
    sync_bytes: int = 0
    tnt_bits: int = 0
    tips: int = 0
    compressed_rets: int = 0
    max_timing_gap_ns: int = 0
    """Longest span between timing packets while the thread was running
    (blocked/context-switched-out spans excluded) — the paper's 65 us
    statistic, which must stay below the 91 us minimum inter-event gap."""

    @property
    def total_bytes(self) -> int:
        return self.control_bytes + self.timing_bytes + self.sync_bytes

    def timing_fraction(self) -> float:
        total = self.total_bytes
        return self.timing_bytes / total if total else 0.0


@dataclass
class ThreadEncoder:
    tid: int
    config: TraceConfig
    ring: RingBuffer = field(init=False)
    stats: EncoderStats = field(init=False)

    def __post_init__(self) -> None:
        self.ring = RingBuffer(self.config.buffer_size)
        self.stats = EncoderStats()
        self._pending_tnt: list[bool] = []
        self._last_period: int | None = None
        self._bytes_since_psb = 0
        self._ret_depth = 0  # return-compression depth since last PSB
        self._next_uid = 0  # position anchor for PSBs and final flush
        self._ended = False
        self._last_timing_time: int | None = None

    def _note_timing(self, time: int, blind: bool = False) -> None:
        """Track the longest running-span gap between timing packets.

        ``blind=True`` resets the reference without measuring — used when
        the thread was context-switched out (block -> wake), a span the
        trace legitimately has no packets for.
        """
        if not blind and self._last_timing_time is not None:
            gap = time - self._last_timing_time
            if gap > self.stats.max_timing_gap_ns:
                self.stats.max_timing_gap_ns = gap
        self._last_timing_time = time

    # -- event API (called by the machine) --------------------------------

    def start(self, start_uid: int, time: int) -> int:
        self._next_uid = start_uid
        return self._emit_sync(time)

    def cond_branch(self, taken: bool, target_uid: int, time: int) -> int:
        cost = self._catch_up_timing(time)
        self._pending_tnt.append(taken)
        self.stats.tnt_bits += 1
        self._next_uid = target_uid
        if len(self._pending_tnt) >= TNT_MAX_BITS:
            cost += self._flush_tnt()
        cost += self._maybe_psb(time)
        return cost

    def indirect_call(self, target_uid: int, time: int) -> int:
        cost = self._catch_up_timing(time)
        cost += self._flush_tnt()
        cost += self._emit_control(encode_tip(target_uid))
        self.stats.tips += 1
        self._ret_depth += 1
        self._next_uid = target_uid
        return cost + self._maybe_psb(time)

    def call(self, callee_uid: int, time: int) -> int:
        # Direct call: statically decodable, no control packet; it only
        # deepens the return-compression stack.
        self._ret_depth += 1
        self._next_uid = callee_uid
        return self._catch_up_timing(time)

    def ret(self, resume_uid: int | None, time: int) -> int:
        cost = self._catch_up_timing(time)
        if self._ret_depth > 0:
            # Compressed return: a taken TNT bit (exactly real PT).
            self._ret_depth -= 1
            self._pending_tnt.append(True)
            self.stats.tnt_bits += 1
            self.stats.compressed_rets += 1
            if len(self._pending_tnt) >= TNT_MAX_BITS:
                cost += self._flush_tnt()
        elif resume_uid is not None:
            cost += self._flush_tnt()
            cost += self._emit_control(encode_tip(resume_uid))
            self.stats.tips += 1
            self._next_uid = resume_uid
        return cost + self._maybe_psb(time)

    def br(self, target_uid: int, time: int) -> int:
        # Unconditional branch: statically decodable, timing catch-up only.
        self._next_uid = target_uid
        return self._catch_up_timing(time)

    def work(
        self,
        instr_uid: int,
        resume_uid: int,
        start: int,
        duration: int,
        live_threads: int,
    ) -> int:
        """Advance over a delay span.

        The span models *traced code executing elsewhere* (I/O waits,
        library work).  The stream gets the region sandwich a real trace
        would have: FUP(position) + TSC at entry, MTC ticks through the
        span, TIP(resume) + TSC at exit — which is what keeps the
        instructions on both sides of the span tightly time-bounded.
        The sandwich packets themselves are charged at zero cost (the
        real code's own packets are already covered by the per-byte
        rate); the MTC run plus per-thread buffer management is the
        modeled overhead (Figure 9 grows with ``live_threads``).
        """
        cost = self._catch_up_timing(start)
        cost += self._flush_tnt()
        self._emit_control(encode_fup(instr_uid))
        self._emit_timing(encode_tsc(start))
        self._note_timing(start)
        end = start + duration
        period = self.config.mtc_period_ns
        first = start // period + 1
        last = end // period
        n_boundaries = max(0, last - first + 1)
        if n_boundaries > 100_000:
            # Backstop against absurd spans (hours of virtual sleep):
            # a single TSC stands in for the MTC run.
            cost += self._emit_timing(encode_tsc(last * period))
        elif n_boundaries > 0:
            cost += self._emit_mtc_run(first, n_boundaries)
        if n_boundaries > 0:
            cost += int(
                n_boundaries * self.config.per_packet_mgmt_ns * max(0, live_threads - 1)
            )
        if n_boundaries > 0:
            # interior MTCs tick every period; the largest running gap
            # inside the span is one period
            self._note_timing(min(start + period, end))
            self._note_timing(end, blind=True)
        self._emit_control(encode_tip(resume_uid))
        self.stats.tips += 1
        self._emit_timing(encode_tsc(end))
        self._note_timing(end)
        self._last_period = end // period
        self._next_uid = resume_uid
        return cost

    def block(self, instr_uid: int, time: int) -> int:
        """Context switch out (blocked on a lock/join): FUP + timestamp.

        Not charged per-byte: these stand in for the mode/PIP packets a
        context switch produces anyway, dwarfed by the switch itself.
        """
        self._catch_up_timing(time)
        self._flush_tnt()
        self._emit_control(encode_fup(instr_uid))
        self._emit_timing(encode_tsc(time))
        self._note_timing(time)
        self._last_period = time // self.config.mtc_period_ns
        return 0

    def wake(self, resume_uid: int, time: int) -> int:
        """Context switch back in: resume position + timestamp (uncharged)."""
        # The span just passed was spent switched out: reset the gap
        # reference first so catch-up does not count it as a running gap.
        self._note_timing(time, blind=True)
        self._catch_up_timing(time)
        self._flush_tnt()
        self._emit_control(encode_tip(resume_uid))
        self.stats.tips += 1
        self._emit_timing(encode_tsc(time))
        self._note_timing(time, blind=True)
        self._last_period = time // self.config.mtc_period_ns
        self._next_uid = resume_uid
        return 0

    def end(self, time: int) -> None:
        """Thread exit: seal the ring with the final TSC + FUP(0) suffix."""
        if self._ended:
            return
        self._flush_tnt()
        self._emit_timing(encode_tsc(time))
        self._note_timing(time)
        self._emit_control(encode_fup(0))
        self._ended = True

    def snapshot_bytes(self, time: int, stop_uid: int) -> bytes:
        """A decodable snapshot of the ring as of ``time``.

        Does not disturb the live encoder: pending TNT bits and the
        TSC + FUP(stop position) suffix are appended to a copy, the way
        the Snorlax driver drains the hardware buffer on demand.
        """
        data = self.ring.snapshot()
        if self._ended:
            return data
        suffix = bytearray()
        if self._pending_tnt:
            suffix += encode_tnt(self._pending_tnt)
        suffix += encode_tsc(time)
        suffix += encode_fup(stop_uid)
        return data + bytes(suffix)

    # -- internals ---------------------------------------------------------------

    def _emit(self, data: bytes) -> int:
        self.ring.write(data)
        self._bytes_since_psb += len(data)
        return len(data) * self.config.per_byte_cost_ns

    def _emit_control(self, data: bytes) -> int:
        self.stats.control_packets += 1
        self.stats.control_bytes += len(data)
        return self._emit(data)

    def _emit_timing(self, data: bytes) -> int:
        self.stats.timing_packets += 1
        self.stats.timing_bytes += len(data)
        return self._emit(data)

    def _emit_mtc_run(self, first_period: int, count: int) -> int:
        """MTC ticks for periods ``first_period .. + count - 1``, in closed
        form: only the bytes that can survive in the ring are built, and
        the rest is accounted arithmetically (2 bytes per tick)."""
        size = 2 * count
        self.ring.write_tail(
            encode_mtc_run(first_period, count, self.ring.capacity), size
        )
        self._bytes_since_psb += size
        self.stats.timing_packets += count
        self.stats.timing_bytes += size
        return size * self.config.per_byte_cost_ns

    def _flush_tnt(self) -> int:
        if not self._pending_tnt:
            return 0
        bits = self._pending_tnt
        self._pending_tnt = []
        return self._emit_control(encode_tnt(bits))

    def _catch_up_timing(self, time: int) -> int:
        """Emit the timing packets owed for virtual time reaching ``time``."""
        period = self.config.mtc_period_ns
        cur = time // period
        if self._last_period is None:
            self._last_period = cur
            self._note_timing(time, blind=True)
            return self._emit_timing(encode_tsc(time))
        if cur == self._last_period:
            return 0
        gap = cur - self._last_period
        self._note_timing(time)
        cost = self._flush_tnt()
        if gap > self.config.tsc_resync_periods:
            cost += self._emit_timing(encode_tsc(time))
        else:
            cost += self._emit_mtc_run(self._last_period + 1, gap)
        self._last_period = cur
        return cost

    def _maybe_psb(self, time: int) -> int:
        if self._bytes_since_psb < self.config.psb_interval_bytes:
            return 0
        return self._emit_sync(time)

    def _emit_sync(self, time: int) -> int:
        """PSB + TSC + TIP(current position): a decoder re-anchor point."""
        cost = self._flush_tnt()
        psb = encode_psb()
        self.ring.write(psb)
        self.stats.sync_packets += 1
        self.stats.sync_bytes += len(psb)
        cost += len(psb) * self.config.per_byte_cost_ns
        self._bytes_since_psb = 0
        tsc = encode_tsc(time)
        self.ring.write(tsc)
        self.stats.sync_bytes += len(tsc)
        cost += len(tsc) * self.config.per_byte_cost_ns
        self._last_period = time // self.config.mtc_period_ns
        self._note_timing(time, blind=True)
        fup = encode_fup(self._next_uid)
        self.ring.write(fup)
        self.stats.sync_bytes += len(fup)
        cost += len(fup) * self.config.per_byte_cost_ns
        self._ret_depth = 0  # return compression resets at PSB (real PT)
        return cost
