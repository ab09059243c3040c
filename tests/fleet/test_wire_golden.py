"""Wire goldens: every fleet message type, byte for byte.

The payload codec is derived from the message dataclasses, so a field
added, reordered or retyped in ``repro.runtime.protocol``,
``repro.sim.failures``, ``TraceSample`` or ``repro.fleet.wire`` changes
frames.  This pins the frames of every message type the fleet sends —
crash, deadlock and base failures, ``sample=None`` and full samples,
empty and non-empty batches — as hex in ``golden_wire_frames.json``.
A change that moves a byte must bump ``wire.VERSION`` and regenerate.

Regenerate (only after an *intentional* change to the wire format)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.fleet.wire import encode_frame
    from tests.fleet.test_wire_golden import FRAMES
    hexes = {k: encode_frame(m, rid).hex() for k, (m, rid) in FRAMES.items()}
    open("tests/fleet/golden_wire_frames.json", "w").write(
        json.dumps(hexes, indent=2, sort_keys=True) + "\\n")
    EOF
"""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.core.pipeline import TraceSample
from repro.errors import WireError
from repro.fleet.wire import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    DiagnosisResult,
    FailureEnvelope,
    Goodbye,
    Heartbeat,
    Hello,
    MonitorSample,
    MsgType,
    Reject,
    TraceBatchRequest,
    TraceBatchResponse,
    WireFault,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.runtime.protocol import FailureNotification, TraceRequest, TraceResponse
from repro.sim.failures import (
    CrashReport,
    DeadlockEntry,
    DeadlockReport,
    FailureReport,
)

GOLDEN_PATH = Path(__file__).parent / "golden_wire_frames.json"
# absent only while the regeneration recipe imports this module
GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

CRASH = CrashReport(
    kind="crash", failing_uid=12, failing_tid=0, time=123_456_789,
    detail="null deref", fault_kind="null", fault_address=0,
    operand_value=None,
)
CRASH_WITH_OPERAND = CrashReport(
    kind="crash", failing_uid=40, failing_tid=3, time=77,
    detail="use after free", fault_kind="use-after-free",
    fault_address=0x7F00_0010, operand_value=-(2**40),
)
DEADLOCK = DeadlockReport(
    kind="deadlock", failing_uid=31, failing_tid=0, time=88, detail="ABBA",
    cycle=(
        DeadlockEntry(0, 0x1000, (0x2000,), 31, since=40),
        DeadlockEntry(1, 0x2000, (0x1000, 0x3000), 57, since=44),
        DeadlockEntry(2, 0x3000, (), 60),
    ),
)
HANG = FailureReport(kind="hang", failing_uid=5, failing_tid=2, time=7, detail="stuck")


def _sample(label="failure", failing=True, failure=CRASH):
    return TraceSample(
        label=label,
        failing=failing,
        buffers={0: b"\x02\x82\x01\xff\x00PSB", 1: b"", 7: bytes(range(256))},
        positions={0: 12, 1: 0, 7: 99},
        failure=failure,
        snapshot_time=123_456_789,
    )


def _envelope(failure):
    return FailureEnvelope(
        bug_id="pbzip2-n/a",
        seed=4,
        notification=FailureNotification(
            bug_hint="pbzip2-n/a", failing_uid=failure.failing_uid,
            failing_tid=failure.failing_tid, time=failure.time,
        ),
        sample=_sample(failure=failure),
    )


# name -> (message, request id)
FRAMES = {
    "hello": (Hello(agent_id="agent-007", bug_id="aget-2"), 0),
    "failure-crash": (_envelope(CRASH), 1),
    "failure-crash-operand": (_envelope(CRASH_WITH_OPERAND), 2),
    "failure-deadlock": (_envelope(DEADLOCK), 3),
    "failure-base": (_envelope(HANG), 4),
    "result": (
        DiagnosisResult(
            signature="aget-2|crash|101",
            digest={
                "bug_kind": "order-violation",
                "f1": 1.0,
                "root_cause": None,
                "target_events": [[12, "W", 0, "main.c:4", "main"]],
                "stage_funnel": {"executed_instructions": 40},
            },
        ),
        5,
    ),
    "result-empty-digest": (DiagnosisResult(signature="s"), 6),
    "reject": (Reject(retry_after=0.25), 7),
    "goodbye": (Goodbye(agent_id="agent-007"), 8),
    "goodbye-default": (Goodbye(), 0),
    "error": (WireFault(message="first frame must be HELLO"), 9),
    "batch-request": (
        TraceBatchRequest(
            requests=(
                TraceRequest(label="success-0", seed=10_000),
                TraceRequest(
                    label="speculative-3", seed=10_003,
                    breakpoint_uids=(12, 7), breakpoint_skip=3,
                ),
            )
        ),
        42,
    ),
    "batch-request-empty": (TraceBatchRequest(requests=()), 43),
    "batch-response": (
        TraceBatchResponse(
            responses=(
                TraceResponse(
                    label="success-0", outcome="success",
                    sample=_sample("success-0", False, None), captured=True,
                ),
                TraceResponse(label="speculative-1", outcome="crash", captured=True),
                TraceResponse(label="speculative-2", outcome="unreachable"),
            )
        ),
        44,
    ),
    "batch-response-empty": (TraceBatchResponse(responses=()), 45),
    "heartbeat": (
        Heartbeat(
            agent_id="agent-007", seq=17, uptime_s=8.5,
            samples_sent=16, failures_seen=1,
        ),
        0,
    ),
    "monitor-sample-success": (
        MonitorSample(bug_id="aget-2", seed=3, outcome="success"),
        0,
    ),
    "monitor-sample-failure": (
        MonitorSample(
            bug_id="aget-2", seed=4, outcome="failure", hang=True,
            sample=_sample(failure=DEADLOCK),
        ),
        0,
    ),
}


def test_golden_covers_every_frame():
    assert sorted(GOLDENS) == sorted(FRAMES)
    sent = {type(msg) for msg, _ in FRAMES.values()}
    assert len(sent) == 10  # every message type a peer sends


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_bytes_match_the_golden(name):
    msg, request_id = FRAMES[name]
    assert encode_frame(msg, request_id).hex() == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_golden_frame_decodes_to_its_message(name):
    msg, request_id = FRAMES[name]
    back, rid = decode_frame(bytes.fromhex(GOLDENS[name]))
    assert rid == request_id
    assert back == msg
    assert type(back) is type(msg)


def _frame(msg_type: int, payload: dict) -> bytes:
    raw = bytearray()
    encode_value(payload, raw)
    header = struct.pack(
        "!2sBBIII", MAGIC, VERSION, msg_type, 0, len(raw), zlib.crc32(raw)
    )
    return header + bytes(raw)


def _payload(name: str) -> dict:
    frame = bytes.fromhex(GOLDENS[name])
    value, _ = decode_value(frame[HEADER_SIZE:])
    return value


def test_unknown_failure_class_is_a_wire_error():
    payload = _payload("failure-crash")
    payload["sample"]["failure"]["cls"] = "livelock"
    with pytest.raises(WireError):
        decode_frame(_frame(MsgType.FAILURE, payload))


def test_missing_failure_class_is_a_wire_error():
    payload = _payload("failure-base")
    del payload["sample"]["failure"]["cls"]
    with pytest.raises(WireError):
        decode_frame(_frame(MsgType.FAILURE, payload))


@pytest.mark.parametrize(
    "msg_type", [0, MsgType.TRACE_REQUEST, MsgType.TRACE_RESPONSE, 99, 255]
)
def test_unknown_message_type_is_a_wire_error(msg_type):
    with pytest.raises(WireError):
        decode_frame(_frame(msg_type, _payload("hello")))


def test_missing_field_is_a_wire_error():
    payload = _payload("heartbeat")
    del payload["uptime_s"]  # defaulted in the dataclass, required on the wire
    with pytest.raises(WireError):
        decode_frame(_frame(MsgType.HEARTBEAT, payload))
