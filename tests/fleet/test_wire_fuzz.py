"""Wire fuzzing: no sequence of damaged bytes may crash or hang a
decoder — every failure mode is a ``WireError``, the one exception the
transports and the resilience machinery are built to absorb.

All randomness is seeded, so a failing case replays.
"""

import asyncio
import random
import struct

import pytest

from repro.errors import WireError
from repro.fleet.wire import (
    HEADER_SIZE,
    MAX_DEPTH,
    MAX_PAYLOAD,
    VERSION,
    Hello,
    TraceBatchRequest,
    TraceBatchResponse,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    read_frame_async,
)
from repro.runtime.protocol import TraceRequest, TraceResponse

from tests.fleet.test_wire import make_sample

TRIALS = 300


def _frames():
    return [
        encode_frame(Hello(agent_id="fuzz", bug_id="aget-2"), 1),
        encode_frame(
            TraceBatchRequest(requests=(
                TraceRequest(label="s-1", seed=9, breakpoint_uids=(2, 5),
                             breakpoint_skip=1),
            )),
            42,
        ),
        encode_frame(
            TraceBatchResponse(responses=(
                TraceResponse(label="s-1", outcome="success", sample=make_sample()),
            )),
            42,
        ),
    ]


def _decode_or_wire_error(data):
    """The fuzz contract: decode succeeds or raises WireError — never
    any other exception, never a hang."""
    try:
        decode_frame(data)
    except WireError:
        pass


# -- bit flips --------------------------------------------------------------


def test_single_bit_flips_never_escape_wire_error():
    rng = random.Random(0xC0FFEE)
    frames = _frames()
    for _ in range(TRIALS):
        frame = bytearray(rng.choice(frames))
        bit = rng.randrange(len(frame) * 8)
        frame[bit // 8] ^= 1 << (bit % 8)
        _decode_or_wire_error(bytes(frame))


def test_byte_burst_corruption_never_escapes_wire_error():
    rng = random.Random(0xDECAF)
    frames = _frames()
    for _ in range(TRIALS):
        frame = bytearray(rng.choice(frames))
        start = rng.randrange(len(frame))
        for i in range(start, min(start + rng.randrange(1, 32), len(frame))):
            frame[i] = rng.randrange(256)
        _decode_or_wire_error(bytes(frame))


# -- truncation -------------------------------------------------------------


def test_every_truncation_prefix_is_rejected():
    for frame in _frames():
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])


# -- hostile length fields --------------------------------------------------


def _header(msg_type=1, request_id=0, length=0, crc=0):
    return struct.pack("!2sBBIII", b"SX", VERSION, msg_type, request_id, length, crc)


def test_oversized_length_field_rejected():
    with pytest.raises(WireError, match="exceeds"):
        decode_frame(_header(length=MAX_PAYLOAD + 1))
    with pytest.raises(WireError, match="exceeds"):
        decode_frame(_header(length=0xFFFFFFFF) + b"\x00" * 64)


def test_declared_length_beyond_data_rejected():
    with pytest.raises(WireError, match="truncated"):
        decode_frame(_header(length=1000) + b"\x00" * 10)


def test_value_length_prefix_beyond_payload_rejected():
    # a str tag claiming 2**31 bytes inside a tiny payload
    payload = b"\x05" + struct.pack("!I", 2**31) + b"abc"
    with pytest.raises(WireError):
        decode_value(payload)


# -- nesting bombs ----------------------------------------------------------


def test_deep_nesting_raises_wire_error_not_recursion_error():
    # 1000 nested single-element lists, then a None: a stack bomb if the
    # decoder recursed unbounded
    depth = 1000
    payload = (b"\x07" + struct.pack("!I", 1)) * depth + b"\x00"
    with pytest.raises(WireError, match="nesting"):
        decode_value(payload)


def test_deep_nesting_rejected_on_encode_too():
    bomb = []
    for _ in range(MAX_DEPTH + 2):
        bomb = [bomb]
    with pytest.raises(WireError, match="nesting"):
        encode_value(bomb, bytearray())


def test_legal_nesting_depth_roundtrips():
    value = "leaf"
    for _ in range(MAX_DEPTH - 2):
        value = [value]
    out = bytearray()
    encode_value(value, out)
    decoded, pos = decode_value(bytes(out))
    assert pos == len(out)
    assert decoded == value


# -- random garbage ---------------------------------------------------------


def test_random_garbage_never_escapes_wire_error():
    rng = random.Random(0xBADF00D)
    for _ in range(TRIALS):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        with pytest.raises((WireError,)):
            decode_frame(data)


def test_garbage_behind_a_valid_header_never_escapes_wire_error():
    # worst case for the payload codec: the header is pristine and the
    # checksum matches, but the payload bytes are attacker-shaped
    rng = random.Random(0x5EED)
    import zlib

    for _ in range(TRIALS):
        payload = bytes(
            rng.randrange(256) for _ in range(rng.randrange(0, 120))
        )
        frame = _header(
            msg_type=rng.randrange(0, 12),
            length=len(payload),
            crc=zlib.crc32(payload),
        ) + payload
        _decode_or_wire_error(frame)


# -- property: roundtrip of random well-formed values -----------------------


def _random_value(rng, depth=0):
    kinds = ["none", "bool", "int", "float", "str", "bytes"]
    if depth < 4:
        kinds += ["list", "tuple", "dict"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randrange(-(2**63), 2**63)
    if kind == "float":
        return rng.uniform(-1e12, 1e12)
    if kind == "str":
        return "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(8)))
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(16)))
    if kind in ("list", "tuple"):
        items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if kind == "list" else tuple(items)
    return {
        _random_value(rng, 4): _random_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def test_random_values_roundtrip_exactly():
    rng = random.Random(1234)
    for _ in range(TRIALS):
        value = {"v": _random_value(rng)}
        out = bytearray()
        encode_value(value, out)
        decoded, pos = decode_value(bytes(out))
        assert pos == len(out)
        assert decoded == value


# -- the async reader -------------------------------------------------------


def _read_fed(data, frame_timeout=None):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader, frame_timeout=frame_timeout)

    return asyncio.run(go())


def test_async_reader_fuzz_matches_sync_contract():
    rng = random.Random(0xA51)
    frames = _frames()
    for _ in range(100):
        frame = bytearray(rng.choice(frames))
        frame[rng.randrange(len(frame))] ^= rng.randrange(1, 256)
        try:
            _read_fed(bytes(frame))
        except (WireError, ConnectionError):
            pass


def test_async_reader_rejects_oversized_length():
    with pytest.raises(WireError, match="exceeds"):
        _read_fed(_header(length=MAX_PAYLOAD + 1))


def test_async_reader_times_out_a_hung_mid_frame_peer():
    # header promises 100 payload bytes that never arrive and the
    # stream never closes: the frame timeout must sever it
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(_header(length=100) + b"\x01\x02")
        # no feed_eof: the peer is alive but wedged
        with pytest.raises(WireError, match="hung mid-frame"):
            await read_frame_async(reader, frame_timeout=0.1)

    asyncio.run(go())


def test_async_reader_reads_back_to_back_frames():
    frames = _frames()

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(frames))
        reader.feed_eof()
        out = []
        for _ in frames:
            msg, rid = await read_frame_async(reader)
            out.append((type(msg).__name__, rid))
        return out

    assert asyncio.run(go()) == [
        ("Hello", 1),
        ("TraceBatchRequest", 42),
        ("TraceBatchResponse", 42),
    ]
