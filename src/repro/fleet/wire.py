"""The fleet wire format: length-prefixed, checksummed binary frames.

The single-machine runtime passes :mod:`repro.runtime.protocol` messages
as in-process dataclasses; the fleet sends the same messages over TCP.
Each frame is::

    !2sBBIII  header (16 bytes)
    ┌──────┬─────────┬──────────┬────────────┬─────────────┬─────────┐
    │ "SX" │ version │ msg type │ request id │ payload len │  crc32  │
    └──────┴─────────┴──────────┴────────────┴─────────────┴─────────┘
    payload (payload-len bytes)

followed by a tagged binary payload.  The payload codec is a small
self-describing value encoding (None/bool/int/float/str/bytes/
list/tuple/dict) so ``TraceSample`` ring-buffer bytes travel unmangled —
no text encoding, no escaping.  The crc32 covers the payload; a frame
whose checksum does not match its bytes (truncation, corruption) raises
:class:`~repro.errors.WireError` rather than deserializing garbage.

``request_id`` correlates responses with requests on a multiplexed
connection: the server tags each :class:`TraceRequest` it sends, and the
agent echoes the id on the :class:`TraceResponse`.
"""

from __future__ import annotations

import socket
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

from repro.core.pipeline import TraceSample
from repro.errors import WireError
from repro.runtime.protocol import FailureNotification, TraceRequest, TraceResponse
from repro.sim.failures import (
    CrashReport,
    DeadlockEntry,
    DeadlockReport,
    FailureReport,
)

MAGIC = b"SX"
# 2: a TraceResponse carries ``captured``; a failing step-8 run ships no sample
VERSION = 2
_HEADER = struct.Struct("!2sBBIII")
HEADER_SIZE = _HEADER.size
MAX_PAYLOAD = 64 * 1024 * 1024  # sanity bound; a 64 KB ring is ~1000x smaller


class MsgType(IntEnum):
    HELLO = 1
    FAILURE = 2
    TRACE_REQUEST = 3
    TRACE_RESPONSE = 4
    RESULT = 5
    REJECT = 6
    GOODBYE = 7
    ERROR = 8
    TRACE_BATCH_REQUEST = 9
    TRACE_BATCH_RESPONSE = 10
    HEARTBEAT = 11
    MONITOR_SAMPLE = 12


# -- fleet envelope messages (wrap the runtime protocol types) -------------


@dataclass(frozen=True)
class Hello:
    """Agent -> server: join the fleet, declaring which program I run."""

    agent_id: str
    bug_id: str


@dataclass
class FailureEnvelope:
    """Agent -> server: Figure 2 step 1 over the network.

    Carries the error-tracker notification plus the failing execution's
    trace sample (the PT ring contents the client saved at the failure)
    and the seed that produced it.
    """

    bug_id: str
    seed: int
    notification: FailureNotification
    sample: TraceSample


@dataclass
class DiagnosisResult:
    """Server -> agent: the finished diagnosis, fanned out to every
    endpoint that reported the same failure signature."""

    signature: str
    digest: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceBatchRequest:
    """Server -> agent: many speculative trace requests in one frame.

    One round-trip per *wave* instead of one per execution: the server
    shards a wave of seeds across every live agent, each agent runs its
    chunk sequentially and answers with a single
    :class:`TraceBatchResponse` echoing the frame's ``request_id``.
    Responses are positional — ``responses[i]`` answers ``requests[i]``.
    """

    requests: tuple[TraceRequest, ...]


@dataclass
class TraceBatchResponse:
    """Agent -> server: the positional answers to a batch request."""

    responses: tuple[TraceResponse, ...]


@dataclass(frozen=True)
class Heartbeat:
    """Agent -> server: periodic liveness beacon of the monitor loop.

    ``seq`` increments per beat so the server can spot gaps;
    ``samples_sent``/``failures_seen`` are the agent's cumulative
    monitor counters, letting the fleet health table show per-endpoint
    progress without a second round-trip.
    """

    agent_id: str
    seq: int
    uptime_s: float = 0.0
    samples_sent: int = 0
    failures_seen: int = 0


@dataclass
class MonitorSample:
    """Agent -> server: one sampled execution from the monitor loop.

    Unlike a :class:`FailureEnvelope` this is *telemetry*, not a
    diagnosis request: the server feeds outcome/hang into the anomaly
    detector and only starts a diagnosis when the detector trips.
    ``sample`` is None for successful executions (no evidence to ship);
    failing executions carry the full trace sample so an
    anomaly-triggered diagnosis starts from the same evidence a
    reported failure would.
    """

    bug_id: str
    seed: int
    outcome: str  # "success" | "failure"
    hang: bool = False  # deadlock-shaped failure (hang-signal counter)
    sample: TraceSample | None = None


@dataclass(frozen=True)
class Reject:
    """Server -> agent: backpressure — the diagnosis queue is full."""

    retry_after: float
    reason: str = "queue full"


@dataclass(frozen=True)
class Goodbye:
    """Agent -> server: clean disconnect."""

    agent_id: str = ""


@dataclass(frozen=True)
class WireFault:
    """Either direction: the peer sent something unprocessable."""

    message: str


# -- tagged value codec ----------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")

# Nesting bound for the value codec: real payloads are a few levels deep
# (a TraceSample dict of dicts); a crafted frame of thousands of nested
# list tags must raise WireError, not blow the interpreter stack.
MAX_DEPTH = 64


def encode_value(value: Any, out: bytearray, depth: int = 0) -> None:
    if depth > MAX_DEPTH:
        raise WireError(f"value nesting exceeds {MAX_DEPTH} levels")
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        if len(raw) > 255:
            raise WireError(f"integer too wide for the wire: {value.bit_length()} bits")
        out.append(_T_INT)
        out.append(len(raw))
        out += raw
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for k, v in value.items():
            encode_value(k, out, depth + 1)
            encode_value(v, out, depth + 1)
    else:
        raise WireError(f"cannot encode {type(value).__name__} on the wire")


def decode_value(data: bytes, pos: int = 0, depth: int = 0) -> tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise WireError(f"value nesting exceeds {MAX_DEPTH} levels")
    try:
        tag = data[pos]
    except IndexError:
        raise WireError("truncated payload: missing value tag") from None
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    try:
        if tag == _T_INT:
            n = data[pos]
            pos += 1
            raw = data[pos : pos + n]
            if len(raw) != n:
                raise WireError("truncated payload: short integer")
            return int.from_bytes(raw, "big", signed=True), pos + n
        if tag == _T_FLOAT:
            return _F64.unpack_from(data, pos)[0], pos + 8
        if tag in (_T_STR, _T_BYTES):
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
            raw = data[pos : pos + n]
            if len(raw) != n:
                raise WireError("truncated payload: short string/bytes")
            return (raw.decode("utf-8") if tag == _T_STR else raw), pos + n
        if tag in (_T_LIST, _T_TUPLE):
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
            items = []
            for _ in range(n):
                item, pos = decode_value(data, pos, depth + 1)
                items.append(item)
            return (items if tag == _T_LIST else tuple(items)), pos
        if tag == _T_DICT:
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
            result: dict = {}
            for _ in range(n):
                k, pos = decode_value(data, pos, depth + 1)
                v, pos = decode_value(data, pos, depth + 1)
                result[k] = v
            return result, pos
    except struct.error:
        raise WireError("truncated payload: short fixed-width field") from None
    except IndexError:
        raise WireError("truncated payload: short length prefix") from None
    raise WireError(f"unknown value tag 0x{tag:02x}")


# -- dataclass <-> dict ----------------------------------------------------


def _failure_to_dict(f: FailureReport | None) -> dict | None:
    if f is None:
        return None
    base = {
        "kind": f.kind,
        "failing_uid": f.failing_uid,
        "failing_tid": f.failing_tid,
        "time": f.time,
        "detail": f.detail,
    }
    if isinstance(f, CrashReport):
        base["cls"] = "crash"
        base["fault_kind"] = f.fault_kind
        base["fault_address"] = f.fault_address
        base["operand_value"] = f.operand_value
    elif isinstance(f, DeadlockReport):
        base["cls"] = "deadlock"
        base["cycle"] = [
            {
                "tid": e.tid,
                "waiting_for_lock": e.waiting_for_lock,
                "held_locks": e.held_locks,
                "instr_uid": e.instr_uid,
                "since": e.since,
            }
            for e in f.cycle
        ]
    else:
        base["cls"] = "base"
    return base


def _failure_from_dict(d: dict | None) -> FailureReport | None:
    if d is None:
        return None
    common = dict(
        kind=d["kind"],
        failing_uid=d["failing_uid"],
        failing_tid=d["failing_tid"],
        time=d["time"],
        detail=d["detail"],
    )
    cls = d.get("cls", "base")
    if cls == "crash":
        return CrashReport(
            **common,
            fault_kind=d["fault_kind"],
            fault_address=d["fault_address"],
            operand_value=d["operand_value"],
        )
    if cls == "deadlock":
        return DeadlockReport(
            **common,
            cycle=tuple(
                DeadlockEntry(
                    tid=e["tid"],
                    waiting_for_lock=e["waiting_for_lock"],
                    held_locks=tuple(e["held_locks"]),
                    instr_uid=e["instr_uid"],
                    since=e["since"],
                )
                for e in d["cycle"]
            ),
        )
    return FailureReport(**common)


def sample_to_dict(s: TraceSample) -> dict:
    return {
        "label": s.label,
        "failing": s.failing,
        "buffers": dict(s.buffers),
        "positions": dict(s.positions),
        "failure": _failure_to_dict(s.failure),
        "snapshot_time": s.snapshot_time,
    }


def sample_from_dict(d: dict) -> TraceSample:
    return TraceSample(
        label=d["label"],
        failing=d["failing"],
        buffers=dict(d["buffers"]),
        positions=dict(d["positions"]),
        failure=_failure_from_dict(d["failure"]),
        snapshot_time=d["snapshot_time"],
    )


def _trace_request_to_dict(msg: TraceRequest) -> dict:
    return {
        "label": msg.label,
        "seed": msg.seed,
        "breakpoint_uids": tuple(msg.breakpoint_uids),
        "breakpoint_skip": msg.breakpoint_skip,
    }


def _trace_request_from_dict(d: dict) -> TraceRequest:
    return TraceRequest(
        label=d["label"],
        seed=d["seed"],
        breakpoint_uids=tuple(d["breakpoint_uids"]),
        breakpoint_skip=d["breakpoint_skip"],
    )


def _trace_response_to_dict(msg: TraceResponse) -> dict:
    return {
        "label": msg.label,
        "outcome": msg.outcome,
        "sample": None if msg.sample is None else sample_to_dict(msg.sample),
        "captured": msg.captured,
    }


def _trace_response_from_dict(d: dict) -> TraceResponse:
    sample = d["sample"]
    return TraceResponse(
        label=d["label"],
        outcome=d["outcome"],
        sample=None if sample is None else sample_from_dict(sample),
        captured=d["captured"],
    )


def _encode_payload(msg: Any) -> tuple[MsgType, dict]:
    if isinstance(msg, Hello):
        return MsgType.HELLO, {"agent_id": msg.agent_id, "bug_id": msg.bug_id}
    if isinstance(msg, FailureEnvelope):
        n = msg.notification
        return MsgType.FAILURE, {
            "bug_id": msg.bug_id,
            "seed": msg.seed,
            "notification": {
                "bug_hint": n.bug_hint,
                "failing_uid": n.failing_uid,
                "failing_tid": n.failing_tid,
                "time": n.time,
            },
            "sample": sample_to_dict(msg.sample),
        }
    if isinstance(msg, TraceRequest):
        return MsgType.TRACE_REQUEST, _trace_request_to_dict(msg)
    if isinstance(msg, TraceResponse):
        return MsgType.TRACE_RESPONSE, _trace_response_to_dict(msg)
    if isinstance(msg, TraceBatchRequest):
        return MsgType.TRACE_BATCH_REQUEST, {
            "requests": [_trace_request_to_dict(r) for r in msg.requests],
        }
    if isinstance(msg, TraceBatchResponse):
        return MsgType.TRACE_BATCH_RESPONSE, {
            "responses": [_trace_response_to_dict(r) for r in msg.responses],
        }
    if isinstance(msg, Heartbeat):
        return MsgType.HEARTBEAT, {
            "agent_id": msg.agent_id,
            "seq": msg.seq,
            "uptime_s": msg.uptime_s,
            "samples_sent": msg.samples_sent,
            "failures_seen": msg.failures_seen,
        }
    if isinstance(msg, MonitorSample):
        return MsgType.MONITOR_SAMPLE, {
            "bug_id": msg.bug_id,
            "seed": msg.seed,
            "outcome": msg.outcome,
            "hang": msg.hang,
            "sample": None if msg.sample is None else sample_to_dict(msg.sample),
        }
    if isinstance(msg, DiagnosisResult):
        return MsgType.RESULT, {"signature": msg.signature, "digest": msg.digest}
    if isinstance(msg, Reject):
        return MsgType.REJECT, {"retry_after": msg.retry_after, "reason": msg.reason}
    if isinstance(msg, Goodbye):
        return MsgType.GOODBYE, {"agent_id": msg.agent_id}
    if isinstance(msg, WireFault):
        return MsgType.ERROR, {"message": msg.message}
    raise WireError(f"cannot put a {type(msg).__name__} on the wire")


def _decode_payload(msg_type: int, d: dict) -> Any:
    if msg_type == MsgType.HELLO:
        return Hello(agent_id=d["agent_id"], bug_id=d["bug_id"])
    if msg_type == MsgType.FAILURE:
        n = d["notification"]
        return FailureEnvelope(
            bug_id=d["bug_id"],
            seed=d["seed"],
            notification=FailureNotification(
                bug_hint=n["bug_hint"],
                failing_uid=n["failing_uid"],
                failing_tid=n["failing_tid"],
                time=n["time"],
            ),
            sample=sample_from_dict(d["sample"]),
        )
    if msg_type == MsgType.TRACE_REQUEST:
        return _trace_request_from_dict(d)
    if msg_type == MsgType.TRACE_RESPONSE:
        return _trace_response_from_dict(d)
    if msg_type == MsgType.TRACE_BATCH_REQUEST:
        return TraceBatchRequest(
            requests=tuple(_trace_request_from_dict(r) for r in d["requests"]),
        )
    if msg_type == MsgType.TRACE_BATCH_RESPONSE:
        return TraceBatchResponse(
            responses=tuple(_trace_response_from_dict(r) for r in d["responses"]),
        )
    if msg_type == MsgType.HEARTBEAT:
        return Heartbeat(
            agent_id=d["agent_id"],
            seq=d["seq"],
            uptime_s=d["uptime_s"],
            samples_sent=d["samples_sent"],
            failures_seen=d["failures_seen"],
        )
    if msg_type == MsgType.MONITOR_SAMPLE:
        sample = d["sample"]
        return MonitorSample(
            bug_id=d["bug_id"],
            seed=d["seed"],
            outcome=d["outcome"],
            hang=d["hang"],
            sample=None if sample is None else sample_from_dict(sample),
        )
    if msg_type == MsgType.RESULT:
        return DiagnosisResult(signature=d["signature"], digest=d["digest"])
    if msg_type == MsgType.REJECT:
        return Reject(retry_after=d["retry_after"], reason=d["reason"])
    if msg_type == MsgType.GOODBYE:
        return Goodbye(agent_id=d["agent_id"])
    if msg_type == MsgType.ERROR:
        return WireFault(message=d["message"])
    raise WireError(f"unknown message type {msg_type}")


# -- framing ---------------------------------------------------------------


def encode_frame(msg: Any, request_id: int = 0) -> bytes:
    msg_type, payload_dict = _encode_payload(msg)
    payload = bytearray()
    encode_value(payload_dict, payload)
    if len(payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    header = _HEADER.pack(
        MAGIC, VERSION, msg_type, request_id, len(payload), zlib.crc32(payload)
    )
    return header + bytes(payload)


def decode_header(header: bytes) -> tuple[int, int, int, int]:
    """-> (msg_type, request_id, payload_len, crc32)."""
    if len(header) < HEADER_SIZE:
        raise WireError(f"truncated frame: {len(header)} byte header")
    magic, version, msg_type, request_id, length, crc = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    return msg_type, request_id, length, crc


def decode_payload(msg_type: int, payload: bytes, crc: int) -> Any:
    if zlib.crc32(payload) != crc:
        raise WireError("checksum mismatch: frame corrupt or truncated")
    value, pos = decode_value(payload)
    if pos != len(payload):
        raise WireError(f"{len(payload) - pos} trailing bytes after payload")
    if not isinstance(value, dict):
        raise WireError("payload root must be a dict")
    try:
        return _decode_payload(msg_type, value)
    except WireError:
        raise
    except Exception as exc:
        # e.g. a flipped msg-type byte that still checksums: the payload
        # dict is valid but carries another message's fields.  Surface a
        # protocol error, never a KeyError/TypeError into the transport.
        raise WireError(
            f"malformed payload for message type {msg_type}: "
            f"{type(exc).__name__}: {exc}"
        ) from None


def decode_frame(data: bytes) -> tuple[Any, int]:
    """Decode one complete frame; raises WireError on any damage."""
    msg_type, request_id, length, crc = decode_header(data)
    payload = data[HEADER_SIZE : HEADER_SIZE + length]
    if len(payload) != length:
        raise WireError(
            f"truncated frame: declared {length} payload bytes, got {len(payload)}"
        )
    return decode_payload(msg_type, payload, crc), request_id


# -- transports ------------------------------------------------------------


def send_frame_sock(sock: socket.socket, msg: Any, request_id: int = 0) -> None:
    sock.sendall(encode_frame(msg, request_id))


def recv_frame_sock(
    sock: socket.socket, frame_timeout: float | None = 30.0
) -> tuple[Any, int]:
    """Blocking read of one frame from a stream socket.

    Raises ConnectionError on EOF at a frame boundary (clean close) and
    WireError on EOF mid-frame (the peer died mid-send).  Once a frame
    has started arriving, the rest must follow within ``frame_timeout``
    seconds, or WireError is raised — a peer that hangs mid-frame
    (truncated send, wedged process) must not wedge the reader with it.
    """
    header = _recv_exact(sock, HEADER_SIZE, mid_frame=False, frame_timeout=frame_timeout)
    msg_type, request_id, length, crc = decode_header(header)
    payload = (
        _recv_exact(sock, length, mid_frame=True, frame_timeout=frame_timeout)
        if length
        else b""
    )
    return decode_payload(msg_type, payload, crc), request_id


def _recv_exact(
    sock: socket.socket,
    n: int,
    mid_frame: bool,
    frame_timeout: float | None = None,
) -> bytes:
    from time import monotonic

    chunks = bytearray()
    # the frame deadline arms once we are committed: immediately when
    # already mid-frame, at the first received byte otherwise
    deadline = (
        monotonic() + frame_timeout
        if mid_frame and frame_timeout is not None
        else None
    )
    while len(chunks) < n:
        try:
            chunk = sock.recv(n - len(chunks))
        except socket.timeout:
            if chunks or mid_frame:
                if deadline is not None and monotonic() > deadline:
                    raise WireError(
                        "peer hung mid-frame (frame timeout exceeded)"
                    ) from None
                continue  # committed to this frame; a poll timeout only
                # surfaces at a clean frame boundary
            raise
        if not chunk:
            if chunks or mid_frame:
                raise WireError("connection closed mid-frame")
            raise ConnectionError("connection closed")
        if not chunks and deadline is None and frame_timeout is not None:
            deadline = monotonic() + frame_timeout
        chunks += chunk
    return bytes(chunks)


async def read_frame_async(
    reader, frame_timeout: float | None = 30.0
) -> tuple[Any, int]:
    """Read one frame from an asyncio StreamReader.

    Waiting at a frame boundary is unbounded (an idle endpoint is
    legal); waiting for a started frame's payload is not.  A corrupted
    length field under MAX_PAYLOAD passes decode_header but declares
    bytes that never arrive — without ``frame_timeout`` that wedges the
    connection forever and silently eats every later frame on it.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise WireError("connection closed mid-frame") from None
        raise ConnectionError("connection closed") from None
    msg_type, request_id, length, crc = decode_header(header)
    try:
        if not length:
            payload = b""
        elif frame_timeout is None:
            payload = await reader.readexactly(length)
        else:
            payload = await asyncio.wait_for(
                reader.readexactly(length), frame_timeout
            )
    except asyncio.IncompleteReadError:
        raise WireError("connection closed mid-frame") from None
    except asyncio.TimeoutError:
        raise WireError("peer hung mid-frame (frame timeout exceeded)") from None
    return decode_payload(msg_type, payload, crc), request_id
