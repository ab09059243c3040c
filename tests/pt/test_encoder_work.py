"""A delay region, encoded in one write, against its packet-by-packet form.

``ThreadEncoder.work`` appends pending TNT bits, the FUP + TSC / MTC run
/ TIP + TSC sandwich of a delay span to the ring in one write and
updates its statistics arithmetically.  The reference below writes the
same region the long way: one ``encode_*`` packet per ring write (one
MTC packet per period boundary) with per-packet bookkeeping.  Both
encoders run the same event script; the ring bytes, ``total_written``,
every statistic, each returned cost and where the next PSB lands must
agree.
"""

from dataclasses import asdict

import pytest

from repro.pt.encoder import ThreadEncoder
from repro.pt.packets import (
    PSB_BYTES,
    encode_fup,
    encode_mtc,
    encode_tip,
    encode_tsc,
)
from repro.pt.timing import KB, TraceConfig

PERIOD = TraceConfig.mtc_period_ns


class PacketByPacket(ThreadEncoder):
    """``work`` as the packet sequence it stands for."""

    def work(self, instr_uid, resume_uid, start, duration, live_threads):
        cost = self._catch_up_timing(start) + self._flush_tnt()
        config = self.config
        end = start + duration
        first, last = start // PERIOD + 1, end // PERIOD
        boundaries = max(0, last - first + 1)
        self._put(encode_fup(instr_uid), "control")
        self._put(encode_tsc(start), "timing")
        self._gap(start)
        if boundaries > 100_000:
            cost += self._put(encode_tsc(last * PERIOD), "timing")
        else:
            for k in range(boundaries):
                cost += self._put(encode_mtc(first + k), "timing")
        if boundaries:
            cost += int(
                boundaries * config.per_packet_mgmt_ns * max(0, live_threads - 1)
            )
            self._gap(min(start + PERIOD, end))
            self._last_timing_time = end  # the span's end is not a running gap
        self._put(encode_tip(resume_uid), "control")
        self.stats.tips += 1
        self._put(encode_tsc(end), "timing")
        self._gap(end)
        self._last_period = last
        self._next_uid = resume_uid
        return cost

    def _put(self, data: bytes, kind: str) -> int:
        """Write one control or timing packet; its per-byte charge."""
        self.ring.write(data)
        self._bytes_since_psb += len(data)
        stats = self.stats
        if kind == "control":
            stats.control_packets += 1
            stats.control_bytes += len(data)
        else:
            stats.timing_packets += 1
            stats.timing_bytes += len(data)
        return len(data) * self.config.per_byte_cost_ns

    def _gap(self, time: int) -> None:
        gap = time - self._last_timing_time
        if gap > self.stats.max_timing_gap_ns:
            self.stats.max_timing_gap_ns = gap
        self._last_timing_time = time


def _state(enc: ThreadEncoder) -> dict:
    return {
        "ring": enc.ring.snapshot(),
        "total_written": enc.ring.total_written,
        "stats": asdict(enc.stats),
        "bytes_since_psb": enc._bytes_since_psb,
        "pending_tnt": list(enc._pending_tnt),
        "last_period": enc._last_period,
        "last_timing_time": enc._last_timing_time,
    }


def _play(enc: ThreadEncoder, script) -> list[int]:
    """Run ``script`` from a thread start at t=0; the cost of each event."""
    costs = [enc.start(1, 0)]
    for event, *args in script:
        costs.append(getattr(enc, event)(*args))
    return costs


def _branches(t: int, count: int, taken: bool = True):
    return [("cond_branch", taken, 7, t)] * count


# start, duration and live_threads of each region; branches before it
# leave TNT bits pending, and time moving to a new period before it
# makes work() catch up first
SCRIPTS = {
    "no-boundary": [*_branches(10, 3), ("work", 3, 4, 20, 100, 1)],
    "zero-duration": [("work", 3, 4, 20, 0, 4)],
    "exactly-on-a-boundary": [("work", 3, 4, PERIOD - 5, 5, 4)],
    "few-boundaries": [*_branches(10, 5), ("work", 3, 4, 30, 3 * PERIOD + 17, 4)],
    "after-catch-up": [
        *_branches(10, 2),
        ("work", 3, 4, 5 * PERIOD + 1, 2 * PERIOD, 2),
    ],
    "after-tsc-resync": [
        *_branches(10, 1),
        ("work", 3, 4, 300 * PERIOD + 9, PERIOD // 2, 4),
    ],
    "back-to-back": [
        ("work", 3, 4, 20, 40 * PERIOD + 3, 4),
        *_branches(40 * PERIOD + 40, 7, taken=False),
        ("work", 5, 6, 40 * PERIOD + 50, 7 * PERIOD, 1),
        ("work", 5, 6, 47 * PERIOD + 60, 0, 4),
        *_branches(47 * PERIOD + 90, 4),
        ("work", 8, 9, 48 * PERIOD + 2, 65 * PERIOD, 3),
    ],
    # 2 bytes per MTC: 3,000 boundaries overrun a 4 KB ring on their own
    "run-longer-than-the-ring": [
        *_branches(10, 4),
        ("work", 3, 4, 20, 3_000 * PERIOD, 4),
        ("work", 5, 6, 3_001 * PERIOD, 5 * PERIOD, 4),
    ],
    "tsc-backstop": [
        *_branches(10, 2),
        ("work", 3, 4, 20, 100_001 * PERIOD + 5, 4),
        ("work", 5, 6, 100_002 * PERIOD, 2 * PERIOD, 1),
    ],
}


@pytest.mark.parametrize("buffer_kb", [4, 64])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_region_in_one_write_equals_packet_by_packet(name, buffer_kb):
    config = TraceConfig(buffer_size=buffer_kb * KB)
    fast, slow = ThreadEncoder(1, config), PacketByPacket(1, config)
    script = SCRIPTS[name]
    assert _play(fast, script) == _play(slow, script)
    assert _state(fast) == _state(slow)
    # where the next PSB lands: branch on until each stream syncs again
    last_t = max(e[-1] if e[0] == "cond_branch" else e[3] + e[4] for e in script)
    syncs = fast.stats.sync_packets
    more = _branches(last_t, 6 * 2048)
    for event in more:
        assert getattr(fast, event[0])(*event[1:]) == getattr(slow, event[0])(*event[1:])
        if fast.stats.sync_packets > syncs:
            break
    assert fast.stats.sync_packets == syncs + 1
    assert _state(fast) == _state(slow)
    assert fast.ring.snapshot().endswith(
        PSB_BYTES + encode_tsc(last_t) + encode_fup(7)
    )


def test_live_threads_scale_only_the_management_charge():
    config = TraceConfig()
    costs = []
    for live in (1, 4):
        enc = ThreadEncoder(1, config)
        enc.start(1, 0)
        costs.append(enc.work(3, 4, 20, 10 * PERIOD, live))
    boundaries = 10
    assert costs[0] == 2 * boundaries * config.per_byte_cost_ns
    assert costs[1] == costs[0] + int(boundaries * config.per_packet_mgmt_ns * 3)
