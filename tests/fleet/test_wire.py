"""Wire codec: round-trips for every message type, bytes-safety,
checksum/truncation rejection."""

import pytest

from repro.core.pipeline import TraceSample
from repro.errors import WireError
from repro.fleet.wire import (
    HEADER_SIZE,
    DiagnosisResult,
    FailureEnvelope,
    Goodbye,
    Hello,
    Reject,
    TraceBatchRequest,
    TraceBatchResponse,
    WireFault,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    sample_from_dict,
    sample_to_dict,
)
from repro.runtime.protocol import FailureNotification, TraceRequest, TraceResponse
from repro.sim.failures import (
    CrashReport,
    DeadlockEntry,
    DeadlockReport,
    FailureReport,
)


def roundtrip(msg, request_id=0):
    decoded, rid = decode_frame(encode_frame(msg, request_id))
    assert rid == request_id
    return decoded


def roundtrip_response(resp, request_id=0):
    """A step-8 response as an agent ships it: in a batch frame."""
    (back,) = roundtrip(TraceBatchResponse(responses=(resp,)), request_id).responses
    return back


def make_sample(**overrides):
    fields = dict(
        label="failure",
        failing=True,
        buffers={0: b"\x02\x82\x01\xff\x00PSB", 1: b"", 7: bytes(range(256))},
        positions={0: 12, 1: 0, 7: 99},
        failure=CrashReport(
            kind="crash",
            failing_uid=12,
            failing_tid=0,
            time=123_456_789,
            detail="null deref",
            fault_kind="null",
            fault_address=0,
            operand_value=None,
        ),
        snapshot_time=123_456_789,
    )
    fields.update(overrides)
    return TraceSample(**fields)


# -- value codec -----------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        255,
        -256,
        2**62,
        -(2**62),
        1.5,
        "héllo",
        "",
        b"",
        b"\x00\xff" * 10,
        [1, "two", b"\x03", None],
        (4, (5, 6)),
        {"k": [1, 2], 3: b"v", "nested": {"a": None}},
    ],
)
def test_value_roundtrip(value):
    out = bytearray()
    encode_value(value, out)
    decoded, pos = decode_value(bytes(out))
    assert pos == len(out)
    assert decoded == value
    assert type(decoded) is type(value)


def test_value_rejects_unencodable():
    with pytest.raises(WireError):
        encode_value(object(), bytearray())


# -- runtime protocol messages ---------------------------------------------


def test_trace_request_roundtrip():
    req = TraceRequest(
        label="success-3", seed=10_042, breakpoint_uids=(12, 7, 9), breakpoint_skip=5
    )
    assert roundtrip(TraceBatchRequest(requests=(req,)), 77).requests == (req,)


def test_trace_response_roundtrip_with_sample():
    resp = TraceResponse(label="success-0", outcome="success", sample=make_sample())
    back = roundtrip_response(resp, request_id=3)
    assert back.label == resp.label
    assert back.outcome == resp.outcome
    assert back.sample == resp.sample


def test_trace_response_roundtrip_without_sample():
    resp = TraceResponse(label="s", outcome="step-limit", sample=None)
    assert roundtrip_response(resp) == resp


def test_trace_response_roundtrip_keeps_captured():
    ok = TraceResponse(
        label="success-0", outcome="success",
        sample=make_sample(failing=False, failure=None), captured=True,
    )
    assert roundtrip_response(ok) == ok
    assert ok.shipped() is ok  # a successful sample ships whole
    failing = TraceResponse(
        label="speculative-1", outcome="crash", sample=make_sample(),
        captured=True,
    )
    shipped = failing.shipped()
    assert (shipped.sample, shipped.captured) == (None, True)
    assert roundtrip_response(shipped) == shipped
    miss = TraceResponse(label="speculative-2", outcome="success")
    assert roundtrip_response(miss).captured is False


def test_bare_step8_messages_have_no_frame():
    # step 8 travels in batch frames only (the golden test refuses the
    # reserved bare frame types on decode)
    with pytest.raises(WireError, match="cannot put a TraceRequest"):
        encode_frame(make_request().requests[0])
    with pytest.raises(WireError, match="cannot put a TraceResponse"):
        encode_frame(TraceResponse(label="s", outcome="success"))


def test_previous_wire_version_is_refused():
    # a version-1 peer's TraceResponse has no ``captured`` field: a
    # mixed-version fleet must fail at the header, not on a missing key
    frame = bytearray(
        encode_frame(
            TraceBatchResponse(responses=(TraceResponse(label="s", outcome="success"),)),
            5,
        )
    )
    frame[2] = 1
    with pytest.raises(WireError, match="unsupported wire version 1"):
        decode_frame(bytes(frame))


def test_trace_batch_request_roundtrip():
    batch = TraceBatchRequest(
        requests=(
            TraceRequest(label="success-0", seed=1, breakpoint_uids=(12,)),
            TraceRequest(
                label="speculative-3",
                seed=4,
                breakpoint_uids=(12, 7),
                breakpoint_skip=3,
            ),
        )
    )
    back = roundtrip(batch, request_id=42)
    assert back == batch
    assert isinstance(back.requests, tuple)


def test_trace_batch_response_roundtrip_positional():
    # the batch contract is positional: responses[i] answers requests[i],
    # so order must survive the codec exactly
    batch = TraceBatchResponse(
        responses=(
            TraceResponse(label="success-0", outcome="success", sample=make_sample()),
            TraceResponse(label="speculative-1", outcome="crash", sample=None),
            TraceResponse(label="speculative-2", outcome="unreachable", sample=None),
        )
    )
    back = roundtrip(batch, request_id=9)
    assert [r.label for r in back.responses] == [
        "success-0", "speculative-1", "speculative-2",
    ]
    assert [r.outcome for r in back.responses] == [
        "success", "crash", "unreachable",
    ]
    assert back.responses[0].sample == batch.responses[0].sample
    assert back.responses[1].sample is None


def test_trace_batch_empty_roundtrip():
    assert roundtrip(TraceBatchRequest(requests=())) == TraceBatchRequest(
        requests=()
    )
    assert roundtrip(TraceBatchResponse(responses=())) == TraceBatchResponse(
        responses=()
    )


def test_failure_notification_roundtrip():
    env = FailureEnvelope(
        bug_id="pbzip2-n/a",
        seed=4,
        notification=FailureNotification(
            bug_hint="pbzip2-n/a", failing_uid=89, failing_tid=1, time=999
        ),
        sample=make_sample(),
    )
    back = roundtrip(env, request_id=1)
    assert back.bug_id == env.bug_id
    assert back.seed == env.seed
    assert back.notification == env.notification
    assert back.sample == env.sample


# -- TraceSample payloads --------------------------------------------------


def test_sample_roundtrip_preserves_ring_bytes():
    sample = make_sample()
    back = sample_from_dict(sample_to_dict(sample))
    assert back == sample
    assert back.buffers[7] == bytes(range(256))  # every byte value survives


def test_sample_roundtrip_empty_buffer():
    sample = make_sample(buffers={0: b""}, positions={0: 0})
    back = sample_from_dict(sample_to_dict(sample))
    assert back.buffers == {0: b""}


def test_sample_roundtrip_no_failure():
    sample = make_sample(failing=False, failure=None, label="success-1")
    assert sample_from_dict(sample_to_dict(sample)) == sample


def test_sample_roundtrip_base_failure_report():
    sample = make_sample(
        failure=FailureReport(
            kind="hang", failing_uid=5, failing_tid=2, time=7, detail="stuck"
        )
    )
    back = sample_from_dict(sample_to_dict(sample))
    assert type(back.failure) is FailureReport
    assert back == sample


def test_sample_roundtrip_deadlock_report():
    sample = make_sample(
        failure=DeadlockReport(
            kind="deadlock",
            failing_uid=31,
            failing_tid=0,
            time=88,
            detail="ABBA",
            cycle=(
                DeadlockEntry(0, 0x1000, (0x2000,), 31, since=40),
                DeadlockEntry(1, 0x2000, (0x1000,), 57, since=44),
            ),
        )
    )
    back = sample_from_dict(sample_to_dict(sample))
    assert back == sample
    assert isinstance(back.failure, DeadlockReport)
    assert back.failure.cycle[1].held_locks == (0x1000,)


# -- fleet envelope messages -----------------------------------------------


@pytest.mark.parametrize(
    "msg",
    [
        Hello(agent_id="agent-007", bug_id="aget-2"),
        DiagnosisResult(
            signature="aget-2|crash|101",
            digest={"bug_kind": "order-violation", "f1": 1.0, "target_events": []},
        ),
        Reject(retry_after=0.25, reason="queue full"),
        Goodbye(agent_id="agent-007"),
        WireFault(message="first frame must be HELLO"),
    ],
)
def test_fleet_message_roundtrip(msg):
    assert roundtrip(msg, request_id=5) == msg


# -- frame damage ----------------------------------------------------------


def test_corrupt_checksum_rejected():
    frame = bytearray(encode_frame(make_request()))
    frame[-1] ^= 0xFF  # flip a payload byte; header checksum now disagrees
    with pytest.raises(WireError, match="checksum"):
        decode_frame(bytes(frame))


def test_truncated_payload_rejected():
    frame = encode_frame(make_request())
    with pytest.raises(WireError, match="truncated"):
        decode_frame(frame[:-3])


def test_truncated_header_rejected():
    frame = encode_frame(make_request())
    with pytest.raises(WireError, match="truncated"):
        decode_frame(frame[: HEADER_SIZE - 2])


def test_bad_magic_rejected():
    frame = bytearray(encode_frame(make_request()))
    frame[0:2] = b"zz"
    with pytest.raises(WireError, match="magic"):
        decode_frame(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode_frame(make_request()))
    frame[2] = 99
    with pytest.raises(WireError, match="version"):
        decode_frame(bytes(frame))


def make_request():
    return TraceBatchRequest(
        requests=(TraceRequest(label="probe", seed=1, breakpoint_uids=(2,)),)
    )
