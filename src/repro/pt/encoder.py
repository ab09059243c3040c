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

import struct
from dataclasses import dataclass, field

from repro.pt.packets import (
    TAG_FUP,
    TAG_TIP,
    TAG_TSC,
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

# Two 9-byte packets (tag + u64 each) packed in one go: a delay region's
# FUP + TSC entry and TIP + TSC exit (see ThreadEncoder.work), and a
# sync point's TSC + FUP.  FUP, TIP and TSC are all 9 bytes long.
_REGION_SIDE = struct.Struct("<BQBQ")
_PACKET_BYTES = _REGION_SIDE.size // 2


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
        # the config's hot fields, read on every event
        self._period = self.config.mtc_period_ns
        self._psb_interval = self.config.psb_interval_bytes

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

    # The hot hooks return at once when time is still in the last timed
    # MTC period: no timing is owed, and _catch_up_timing would return 0.

    def cond_branch(self, taken: bool, target_uid: int, time: int) -> int:
        if time // self._period == self._last_period:
            cost = 0
        else:
            cost = self._catch_up_timing(time)
        pending = self._pending_tnt  # after catch-up, which may flush it
        pending.append(taken)
        self.stats.tnt_bits += 1
        self._next_uid = target_uid
        if len(pending) >= TNT_MAX_BITS:
            cost += self._flush_tnt()
        if self._bytes_since_psb >= self._psb_interval:
            cost += self._emit_sync(time)
        return cost

    def indirect_call(self, target_uid: int, time: int) -> int:
        cost = self._catch_up_timing(time)
        cost += self._flush_tnt()
        cost += self._emit_control(encode_tip(target_uid))
        self.stats.tips += 1
        self._ret_depth += 1
        self._next_uid = target_uid
        if self._bytes_since_psb >= self._psb_interval:
            cost += self._emit_sync(time)
        return cost

    def call(self, callee_uid: int, time: int) -> int:
        # Direct call: statically decodable, no control packet; it only
        # deepens the return-compression stack.
        self._ret_depth += 1
        self._next_uid = callee_uid
        if time // self._period == self._last_period:
            return 0
        return self._catch_up_timing(time)

    def ret(self, resume_uid: int | None, time: int) -> int:
        if time // self._period == self._last_period:
            cost = 0
        else:
            cost = self._catch_up_timing(time)
        if self._ret_depth > 0:
            # Compressed return: a taken TNT bit (exactly real PT).
            self._ret_depth -= 1
            pending = self._pending_tnt
            pending.append(True)
            stats = self.stats
            stats.tnt_bits += 1
            stats.compressed_rets += 1
            if len(pending) >= TNT_MAX_BITS:
                cost += self._flush_tnt()
        elif resume_uid is not None:
            cost += self._flush_tnt()
            cost += self._emit_control(encode_tip(resume_uid))
            self.stats.tips += 1
            self._next_uid = resume_uid
        if self._bytes_since_psb >= self._psb_interval:
            cost += self._emit_sync(time)
        return cost

    def br(self, target_uid: int, time: int) -> int:
        # Unconditional branch: statically decodable, timing catch-up only.
        self._next_uid = target_uid
        if time // self._period == self._last_period:
            return 0
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

        Pending TNT bits, the sandwich and its MTC run reach the ring in
        one write, and the statistics and timing-gap reference are
        updated arithmetically: a ring's observable state is its newest
        ``capacity`` bytes plus ``total_written``, which one
        concatenated write leaves exactly as the packet-by-packet
        writes would.
        """
        config = self.config
        period = self._period
        if start // period == self._last_period:
            cost = 0
        else:
            cost = self._catch_up_timing(start)
        tnt = self._take_tnt()
        end = start + duration
        first = start // period + 1
        last = end // period
        n_boundaries = last - first + 1
        stats = self.stats
        # the running gaps the region's timing packets close: entry TSC
        # after the previous timing packet, then either the first
        # interior MTC (at most one period in) or the exit TSC
        gap = start - self._last_timing_time
        inner = min(period, duration) if n_boundaries > 0 else duration
        if inner > gap:
            gap = inner
        if gap > stats.max_timing_gap_ns:
            stats.max_timing_gap_ns = gap
        self._last_timing_time = end
        entry = tnt + _REGION_SIDE.pack(TAG_FUP, instr_uid, TAG_TSC, start)
        exit_ = _REGION_SIDE.pack(TAG_TIP, resume_uid, TAG_TSC, end)
        ring = self.ring
        if n_boundaries > 100_000:
            # Backstop against absurd spans (hours of virtual sleep):
            # a single TSC stands in for the MTC run.
            ring.write(entry + encode_tsc(last * period) + exit_)
            run_bytes = _PACKET_BYTES
            stats.timing_packets += 1
        elif n_boundaries > 0:
            run_bytes = 2 * n_boundaries
            ring.write_tail(
                encode_mtc_run(first, n_boundaries, ring.capacity),
                run_bytes,
                entry,
                exit_,
            )
            stats.timing_packets += n_boundaries
        else:
            ring.write(entry + exit_)
            run_bytes = 0
        cost += len(tnt) * config.per_byte_cost_ns
        if run_bytes:
            cost += run_bytes * config.per_byte_cost_ns + int(
                n_boundaries * config.per_packet_mgmt_ns * max(0, live_threads - 1)
            )
        # FUP and TIP are control packets, the two TSCs timing packets
        stats.control_packets += 2
        stats.control_bytes += 2 * _PACKET_BYTES
        stats.timing_packets += 2
        stats.timing_bytes += 2 * _PACKET_BYTES + run_bytes
        stats.tips += 1
        self._bytes_since_psb += 4 * _PACKET_BYTES + run_bytes
        self._last_period = last
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

    def _take_tnt(self) -> bytes:
        """The pending TNT bits as one accounted packet, for the caller
        to write (empty when none are pending)."""
        bits = self._pending_tnt
        if not bits:
            return b""
        self._pending_tnt = []
        data = encode_tnt(bits)
        stats = self.stats
        stats.control_packets += 1
        stats.control_bytes += len(data)
        self._bytes_since_psb += len(data)
        return data

    def _flush_tnt(self) -> int:
        data = self._take_tnt()
        if not data:
            return 0
        self.ring.write(data)
        return len(data) * self.config.per_byte_cost_ns

    def _catch_up_timing(self, time: int) -> int:
        """Emit the timing packets owed for virtual time reaching ``time``."""
        cur = time // self._period
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

    def _emit_sync(self, time: int) -> int:
        """PSB + TSC + FUP(current position): a decoder re-anchor point,
        written (after any pending TNT bits) in one go."""
        tnt = self._take_tnt()
        sync = encode_psb() + _REGION_SIDE.pack(TAG_TSC, time, TAG_FUP, self._next_uid)
        self.ring.write(tnt + sync)
        stats = self.stats
        stats.sync_packets += 1  # the PSB; its TSC and FUP count as sync bytes
        stats.sync_bytes += len(sync)
        self._bytes_since_psb = 0
        self._last_period = time // self._period
        self._note_timing(time, blind=True)
        self._ret_depth = 0  # return compression resets at PSB (real PT)
        return (len(tnt) + len(sync)) * self.config.per_byte_cost_ns
