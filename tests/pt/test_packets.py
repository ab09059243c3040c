"""Binary packet encode/parse, including hypothesis round trips."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceDecodeError
from repro.pt.packets import (
    PSB_BYTES,
    FupPacket,
    MtcPacket,
    PsbPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    encode_fup,
    encode_mtc,
    encode_psb,
    encode_tip,
    encode_tnt,
    encode_tsc,
    find_psb,
    parse_packets,
)


def test_tnt_round_trip():
    data = encode_tnt([True, False, True])
    (pkt,) = parse_packets(data)
    assert isinstance(pkt, TntPacket)
    assert pkt.bits == (True, False, True)


def test_tnt_bit_limits():
    with pytest.raises(ValueError):
        encode_tnt([])
    with pytest.raises(ValueError):
        encode_tnt([True] * 7)


def test_tip_tsc_fup_mtc_round_trip():
    stream = encode_tip(12345) + encode_tsc(999_999) + encode_fup(77) + encode_mtc(300)
    pkts = list(parse_packets(stream))
    assert isinstance(pkts[0], TipPacket) and pkts[0].uid == 12345
    assert isinstance(pkts[1], TscPacket) and pkts[1].time == 999_999
    assert isinstance(pkts[2], FupPacket) and pkts[2].uid == 77
    assert isinstance(pkts[3], MtcPacket) and pkts[3].counter == 300 & 0xFF


def test_psb_detection():
    stream = b"\x00\x00" + encode_psb() + encode_tsc(1)
    off = find_psb(stream)
    assert off == 2
    pkts = list(parse_packets(stream, off))
    assert isinstance(pkts[0], PsbPacket)
    assert isinstance(pkts[1], TscPacket)


def test_pad_skipped():
    stream = b"\x00" * 5 + encode_mtc(1)
    pkts = list(parse_packets(stream))
    assert len(pkts) == 1


def test_truncated_trailing_packet_ends_iteration():
    stream = encode_mtc(1) + encode_tip(5)[:4]  # cut mid-TIP
    pkts = list(parse_packets(stream))
    assert len(pkts) == 1


def test_unknown_tag_raises():
    with pytest.raises(TraceDecodeError):
        list(parse_packets(b"\xff"))


def test_corrupt_psb_raises():
    stream = bytes([0x82, 0x03]) + b"\x00" * 20
    with pytest.raises(TraceDecodeError):
        list(parse_packets(stream))


def test_corrupt_trailing_psb_raises_like_mid_stream():
    # two bytes that are no prefix of a PSB are corrupt in mid-stream ...
    with pytest.raises(TraceDecodeError, match="^corrupt PSB at offset 9$"):
        list(parse_packets(encode_tsc(5) + b"\x82\x05" + encode_tsc(6)))
    # ... and at the end of the stream too
    with pytest.raises(TraceDecodeError, match="^corrupt PSB at offset 9$"):
        list(parse_packets(encode_tsc(5) + b"\x82\x05"))
    with pytest.raises(TraceDecodeError, match="^corrupt PSB at offset 9$"):
        list(parse_packets(encode_tsc(5) + PSB_BYTES[:7] + b"\x00"))


def test_truncated_trailing_psb_ends_iteration():
    for cut in range(1, len(PSB_BYTES)):
        pkts = list(parse_packets(encode_tsc(5) + PSB_BYTES[:cut]))
        assert [p.kind for p in pkts] == ["tsc"]


_packet_strategy = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=6).map(encode_tnt),
    st.integers(0, 2**40).map(encode_tip),
    st.integers(0, 2**40).map(encode_tsc),
    st.integers(0, 2**40).map(encode_fup),
    st.integers(0, 255).map(encode_mtc),
    st.just(encode_psb()),
)


@given(st.lists(_packet_strategy, min_size=0, max_size=50))
def test_any_packet_sequence_round_trips(chunks):
    stream = b"".join(chunks)
    pkts = list(parse_packets(stream))
    assert len(pkts) == len(chunks)
    # re-encode and compare byte-for-byte
    out = bytearray()
    for pkt in pkts:
        if isinstance(pkt, TntPacket):
            out += encode_tnt(list(pkt.bits))
        elif isinstance(pkt, TipPacket):
            out += encode_tip(pkt.uid)
        elif isinstance(pkt, TscPacket):
            out += encode_tsc(pkt.time)
        elif isinstance(pkt, FupPacket):
            out += encode_fup(pkt.uid)
        elif isinstance(pkt, MtcPacket):
            out += encode_mtc(pkt.counter)
        elif isinstance(pkt, PsbPacket):
            out += encode_psb()
    assert bytes(out) == stream


def test_psb_is_16_bytes_alternating():
    assert len(PSB_BYTES) == 16
    assert PSB_BYTES == bytes([0x82, 0x02] * 8)
