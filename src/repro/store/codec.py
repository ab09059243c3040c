"""Serialization for the persistent store's trace tier.

Decoded traces are pure data (uids, tids, time intervals) and pickle
across processes unchanged.  Every payload is stamped with
:data:`CODEC_VERSION`; ``decode_trace`` returns ``None`` on any payload
it cannot load (codec version drift, corruption), turning it into a
cache miss — the caller re-decodes, which is always correct.
"""

from __future__ import annotations

import pickle

# 2: a ThreadTrace summarises its timing (TimingSummary) instead of
# listing every tick, so a trace stored in the old layout is a miss
# 3: DynamicInstruction is a named tuple, not a frozen dataclass; a
# trace pickled with the dataclass cannot be loaded, so it is a miss
# 4: a ThreadTrace keeps its decoded run records instead of one value
# per executed instruction, so a trace stored in the old layout is a miss
CODEC_VERSION = 4

_PICKLE_PROTOCOL = 4  # stable across the supported CPythons (3.10+)


def encode_trace(trace) -> bytes:
    """Decoded traces are identity-free plain data; pickle is exact."""
    return pickle.dumps(
        {"codec": CODEC_VERSION, "trace": trace}, protocol=_PICKLE_PROTOCOL
    )


def decode_trace(blob: bytes):
    """The stored :class:`~repro.pt.decoder.ThreadTrace`, or ``None``
    on version drift/corruption (a miss; the caller re-decodes)."""
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    if not isinstance(payload, dict) or payload.get("codec") != CODEC_VERSION:
        return None
    return payload.get("trace")
