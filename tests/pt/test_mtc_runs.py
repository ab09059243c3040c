"""Closed-form MTC runs against a one-tick-at-a-time oracle.

The encoder writes a run of n MTC ticks as one ring-tail write, the
lexer coalesces +1-stepping MTCs into one ``K_MTC`` tuple, and the
decoder applies a whole run in one step.  Each must agree exactly with
handling the same ticks one packet at a time: the ring's snapshot and
byte count, a byte-at-a-time reference parse (and the ``Packet`` views
built from the lexer), and every field of the decoded ``ThreadTrace``.
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.ir import parse_module
from repro.errors import TraceDecodeError
from repro.pt import decoder
from repro.pt.decoder import TimingSummary, decode_thread_trace
from repro.pt.packets import (
    K_MTC,
    K_TNT,
    KIND_NAMES,
    PSB_BYTES,
    MtcPacket,
    MtcRunPacket,
    encode_fup,
    encode_mtc,
    encode_mtc_run,
    encode_psb,
    encode_tip,
    encode_tnt,
    encode_tsc,
    lex,
    parse_packets,
    parse_runs,
)
from repro.pt.ringbuffer import RingBuffer


class _PerTickWalker(decoder._Walker):
    """The oracle: the decoder's MTC rule applied one tick at a time."""

    def _on_mtc(self, pkt):
        _kind, _offset, counter, count = pkt  # one lexer tuple: a whole run
        for k in range(count):
            self.trace.timing_packets += 1
            if self.last_period is None:
                continue  # MTC before any TSC: unusable for absolute time
            delta = (counter + k - (self.last_period & 0xFF)) & 0xFF or 256
            self.last_period += delta
            if self.period_guess:
                self._on_time(self.last_period * self.period_guess, exact=False)


# -- ring buffer ------------------------------------------------------------

_ring_ops = st.lists(
    st.one_of(
        # a run: any first period (so counters cross 255 -> 0), lengths
        # from one tick to several times the ring's capacity
        st.tuples(st.just("run"), st.integers(0, 2**20), st.integers(1, 1200)),
        st.tuples(st.just("bytes"), st.binary(max_size=40)),
    ),
    max_size=12,
)


@settings(max_examples=300)
@given(capacity=st.integers(1, 300), ops=_ring_ops)
@example(capacity=7, ops=[("bytes", b"abc"), ("run", 250, 9), ("run", 3, 1)])
@example(capacity=8, ops=[("run", 255, 600), ("bytes", b"x"), ("run", 0, 4)])
def test_ring_tail_write_matches_per_packet_writes(capacity, ops):
    fast, slow = RingBuffer(capacity), RingBuffer(capacity)
    for op in ops:
        if op[0] == "run":
            _, first, count = op
            fast.write_tail(encode_mtc_run(first, count, capacity), 2 * count)
            for period in range(first, first + count):
                slow.write(encode_mtc(period))
        else:
            fast.write(op[1])
            slow.write(op[1])
        assert fast.snapshot() == slow.snapshot()
        assert fast.total_written == slow.total_written


def test_mtc_run_is_the_joined_packets():
    for first, count in ((0, 1), (254, 3), (255, 257), (1000, 700)):
        joined = b"".join(encode_mtc(p) for p in range(first, first + count))
        assert encode_mtc_run(first, count) == joined
        assert encode_mtc_run(first, count, 5) == joined[-5:]


# -- parser -----------------------------------------------------------------


@st.composite
def _mtc_streams(draw):
    """Runs whose next counter continues (+1), repeats (0) or jumps,
    separated at random by non-MTC packets; with the expected counters."""
    data, counters = bytearray(), []
    counter = draw(st.integers(0, 255))
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            data += draw(
                st.sampled_from([encode_tnt([True]), encode_tsc(5), encode_psb()])
            )
        step = draw(st.sampled_from([1, 0, None]))
        counter = draw(st.integers(0, 255)) if step is None else counter + step
        count = draw(st.integers(1, 700))
        data += encode_mtc_run(counter, count)
        counters += [(counter + k) & 0xFF for k in range(count)]
        counter += count - 1
    return bytes(data), counters


@given(_mtc_streams())
def test_parse_runs_coalesces_exactly_the_plus_one_steps(stream):
    data, counters = stream
    runs = [p for p in parse_runs(data) if isinstance(p, MtcRunPacket)]
    per_packet = [p for p in parse_packets(data) if isinstance(p, MtcPacket)]
    assert [p.counter for p in per_packet] == counters
    assert [p.offset for p in per_packet] == [
        run.offset + 2 * k for run in runs for k in range(run.count)
    ]
    for a, b in zip(runs, runs[1:]):
        # maximal: an adjacent run never continues its predecessor
        adjacent = b.offset == a.offset + 2 * a.count
        assert not (adjacent and b.counter == (a.counter + a.count) & 0xFF)


def test_truncated_mtc_ends_the_run():
    data = encode_mtc_run(10, 5) + bytes([0x50])
    (run,) = parse_runs(data)
    assert (run.counter, run.count) == (10, 5)


# -- decoder ----------------------------------------------------------------

LOOP = parse_module(
    """
module t

func helper() -> void {
entry:
  ret
}

func main() -> void {
entry:
  br loop
loop:
  delay 10
  call @helper()
  %c = cmp lt 0, 1
  cbr %c, loop, done
done:
  ret
}
"""
)
_main = LOOP.function("main")
ENTRY = _main.entry.instructions[0].uid
DELAY, CALL = (i.uid for i in _main.blocks[1].instructions[:2])


@st.composite
def _timing(draw, state, kinds=("mtc", "mtc", "tsc", "psb")):
    """Timing-only packets: MTC runs (continuing, repeating or jumping
    counters), TSCs at arbitrary times (some below t_lo), PSB headers."""
    out = bytearray()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "mtc":
            step = draw(st.sampled_from([1, 0, None]))
            if step is None:
                state["counter"] = draw(st.integers(0, 255))
            else:
                state["counter"] += step
            count = draw(st.integers(1, 300))
            out += encode_mtc_run(state["counter"], count)
            state["counter"] += count - 1
        elif kind == "tsc":
            out += encode_tsc(draw(st.integers(0, 2_000_000)))
        else:
            out += encode_psb() + encode_tsc(draw(st.integers(0, 2_000_000)))
            out += encode_fup(ENTRY)
    return bytes(out)


@st.composite
def _loop_streams(draw):
    """A walkable trace of LOOP with timing packets everywhere."""
    state = {"counter": draw(st.integers(0, 255))}
    data = bytearray(encode_psb())
    data += draw(_timing(state, kinds=("mtc",)))  # before the anchor's TSC
    data += encode_tsc(draw(st.integers(0, 1_000_000))) + encode_fup(ENTRY)
    iterations = draw(st.integers(1, 5))
    stop = draw(st.booleans())
    for i in range(iterations):
        last = i == iterations - 1
        data += draw(_timing(state)) + encode_fup(DELAY)
        data += draw(_timing(state)) + encode_tip(CALL)
        data += draw(_timing(state))
        # the helper's compressed return, then the loop branch
        data += encode_tnt([True, stop or not last])
    data += draw(_timing(state))
    if stop:  # snapshot suffix: runs right before the stop FUP
        data += encode_tsc(draw(st.integers(0, 2_000_000))) + encode_fup(DELAY)
    else:
        data += encode_tip(0)
    return bytes(data)


def _outcome(data, period):
    try:
        return decode_thread_trace(LOOP, data, 1, period)
    except Exception as exc:  # both sides must fail the same way
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(_loop_streams(), st.sampled_from([0, 1000, 4096]))
def test_decoder_runs_match_the_per_tick_oracle(data, period):
    closed = _outcome(data, period)
    with mock.patch.object(decoder, "_Walker", _PerTickWalker):
        oracle = _outcome(data, period)
    assert closed == oracle
    assert not isinstance(closed, str) and not closed.desync


# -- lexer --------------------------------------------------------------------


def _reference(data):
    """The packets of ``data`` as ``(kind, offset, value)``, one per MTC
    tick, parsed a byte at a time independently of the lexer."""
    wide = {0x60: "tip", 0x70: "tsc", 0x78: "fup"}
    out, i, n = [], 0, len(data)
    while i < n:
        tag = data[i]
        if tag == 0x00:
            i += 1
        elif tag == 0x82:
            if data[i : i + 16] == PSB_BYTES:
                out.append(("psb", i, 0))
                i += 16
            elif n - i < 16 and PSB_BYTES[: n - i] == data[i:]:
                break  # truncated trailing PSB
            else:
                raise TraceDecodeError(f"corrupt PSB at offset {i}")
        elif 0x41 <= tag <= 0x46 or tag == 0x50:
            if i + 1 >= n:
                break
            if tag == 0x50:
                out.append(("mtc", i, data[i + 1]))
            else:
                bits = tuple(bool(data[i + 1] >> b & 1) for b in range(tag - 0x40))
                out.append(("tnt", i, bits))
            i += 2
        elif tag in wide:
            if i + 9 > n:
                break
            out.append((wide[tag], i, int.from_bytes(data[i + 1 : i + 9], "little")))
            i += 9
        else:
            raise TraceDecodeError(f"unknown packet tag 0x{tag:02x} at offset {i}")
    return out


def _expanded_lex(data):
    out = []
    for kind, offset, value, count in lex(data):
        if kind == K_MTC:
            out += [("mtc", offset + 2 * k, (value + k) & 0xFF) for k in range(count)]
        else:
            assert count == (len(value) if kind == K_TNT else 1)
            out.append((KIND_NAMES[kind], offset, value))
    return out


def _packet_view(data):
    values = {"tnt": "bits", "tip": "uid", "fup": "uid", "tsc": "time", "mtc": "counter"}
    return [
        (p.kind, p.offset, getattr(p, values[p.kind]) if p.kind in values else 0)
        for p in parse_packets(data)
    ]


def _assert_same_parse(data):
    """The lexer, the packet view and the reference give the same
    packets, or raise the same exception type with the same message."""
    outcomes = []
    for parse in (_expanded_lex, _packet_view, _reference):
        try:
            outcomes.append(parse(data))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lexer_matches_the_reference_on_walkable_and_timing_streams(data):
    state = {"counter": data.draw(st.integers(0, 255))}
    stream = data.draw(st.one_of(_loop_streams(), _timing(state)))
    _assert_same_parse(stream)
    for cut in data.draw(st.lists(st.integers(0, len(stream)), max_size=8)):
        _assert_same_parse(stream[:cut])


@given(st.binary(max_size=300))
def test_lexer_matches_the_reference_on_random_bytes(data):
    _assert_same_parse(data)


_small_chunks = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=6).map(encode_tnt),
    st.integers(0, 2**40).map(encode_tip),
    st.integers(0, 2**40).map(encode_tsc),
    st.integers(0, 2**40).map(encode_fup),
    st.tuples(st.integers(0, 255), st.integers(1, 12)).map(
        lambda run: encode_mtc_run(*run)
    ),
    st.just(encode_psb()),
    st.just(b"\x00"),
    # a PSB cut short or with one corrupt byte, and random bytes
    st.tuples(st.integers(1, 15), st.binary(max_size=1)).map(
        lambda cut: PSB_BYTES[: cut[0]] + cut[1]
    ),
    st.binary(min_size=1, max_size=2),
)


@settings(deadline=None)
@given(st.lists(_small_chunks, max_size=12))
@example([encode_tsc(5), b"\x82\x05"])
def test_lexer_matches_the_reference_when_cut_at_every_offset(chunks):
    stream = b"".join(chunks)
    for cut in range(len(stream) + 1):
        _assert_same_parse(stream[:cut])


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 5000), st.integers(1, 6), st.integers(1, 300)),
        max_size=12,
    )
)
def test_timing_summary_matches_the_value_list(runs):
    summary, values = TimingSummary(), []
    for jump, count, period in runs:
        first = (values[-1] if values else 0) + jump
        summary.add_run(first, count, period)
        values.extend(first + k * period for k in range(count))
    gaps = [b - a for a, b in zip(values, values[1:])]
    assert summary.count == len(values)
    assert summary.max_gap == max(gaps, default=0)
    if values:
        assert (summary.first, summary.last) == (values[0], values[-1])
