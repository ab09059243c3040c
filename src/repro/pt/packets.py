"""Binary packet format of the PT-like trace.

The format is a simplified Intel PT: genuinely byte-encoded so that
ring-buffer wraparound truncates history the way real hardware does,
and decoding has to re-synchronize at a PSB boundary.

Packet encodings (first byte is the tag):

======  =========  ==============================================
packet  size       layout
======  =========  ==============================================
PAD     1          0x00
TNT     2          0x40+count (1..6), then a payload byte whose
                   low ``count`` bits are taken/not-taken flags,
                   oldest branch in bit 0
TIP     9          0x60, u64 LE instruction uid where execution
                   (re)starts — indirect-call targets, uncompressed
                   returns, post-PSB anchors, final flush position
MTC     2          0x50, low 8 bits of (time // mtc_period)
TSC     9          0x70, u64 LE full virtual time in ns
FUP     9          0x78, u64 LE instruction uid — post-PSB anchor,
                   start of a delay or blocked region, snapshot stop
                   position (and 0 at thread exit)
PSB     16         0x82 0x02 x 8 — decoder sync point
======  =========  ==============================================

Returns are TNT-compressed exactly like real PT: a return whose call
was seen since the last PSB is encoded as a taken TNT bit; otherwise it
gets a TIP.

Lexing.  :func:`lex` turns a snapshot into one flat list of small
tuples ``(kind, offset, value, count)`` with int kinds (``K_MTC`` ..
``K_FUP``): no packet object is built.  It is the only parser; the
decoder dispatches on its tuples, and :func:`parse_runs` and
:func:`parse_packets` are thin views that build the :class:`Packet`
dataclasses from them for tests and packet counts.

MTC runs.  Between two control events the stream holds nothing but MTC
ticks, one per period, whose counters step by +1 (mod 256): an
arithmetic progression.  Both ends handle such a run in closed form
without changing a byte.  :func:`encode_mtc_run` slices a run's bytes
out of the 512-byte counter cycle, and :func:`lex` coalesces a run into
one ``K_MTC`` entry: it steps the first ticks one by one (most runs are
short), then compares whole 512-byte laps in place and finds where the
last lap breaks off with one XOR.  :func:`parse_runs` shows a run as one
:class:`MtcRunPacket`; :func:`parse_packets` still yields one
:class:`MtcPacket` per tick.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import TraceDecodeError

TAG_PAD = 0x00
TAG_TNT_BASE = 0x40  # TAG_TNT_BASE + count, count in 1..6
TAG_MTC = 0x50
TAG_TIP = 0x60
TAG_TSC = 0x70
TAG_FUP = 0x78
PSB_BYTES = bytes([0x82, 0x02] * 8)

TNT_MAX_BITS = 6

# Every MTC packet of one counter lap, in counter order: the bytes of
# any run of +1-stepping MTCs are a slice of this cycle repeated.
_MTC_CYCLE = bytes(b for counter in range(256) for b in (TAG_MTC, counter))
_MTC_LAP = len(_MTC_CYCLE)  # 512
_MTC_LAPS = _MTC_CYCLE * 2  # any lap-long window, starting at any counter

# Precomputed TNT bit tuples: _TNT_BITS[count][payload] is the decoded
# (oldest-first) flag tuple for a payload byte carrying ``count`` bits.
# 6 x 256 shared tuples replace a per-packet Python bit loop — TNT is
# the dominant packet kind, so decode spends most of its time here.
_TNT_BITS: tuple[tuple[tuple[bool, ...], ...], ...] = tuple(
    tuple(
        tuple(bool(payload >> b & 1) for b in range(count))
        for payload in range(256)
    )
    for count in range(TNT_MAX_BITS + 1)
)

# ... and its inverse: every TNT packet by its flag tuple, so flushing
# the pending bits of a branch-heavy stretch is one lookup
_TNT_PACKETS: dict[tuple[bool, ...], bytes] = {
    bits: bytes([TAG_TNT_BASE + count, payload])
    for count in range(1, TNT_MAX_BITS + 1)
    for payload, bits in enumerate(_TNT_BITS[count][: 1 << count])
}


@dataclass(frozen=True)
class Packet:
    kind: str  # "tnt" | "tip" | "mtc" | "tsc" | "fup" | "psb"
    offset: int  # byte offset in the decoded stream

    @property
    def size(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class TntPacket(Packet):
    bits: tuple[bool, ...] = ()


@dataclass(frozen=True)
class TipPacket(Packet):
    uid: int = 0


@dataclass(frozen=True)
class MtcPacket(Packet):
    counter: int = 0


@dataclass(frozen=True)
class MtcRunPacket(Packet):
    """``count`` back-to-back MTC packets with counters ``counter``,
    ``counter + 1``, ... (mod 256): ticks with no control event between."""

    counter: int = 0
    count: int = 1


@dataclass(frozen=True)
class TscPacket(Packet):
    time: int = 0


@dataclass(frozen=True)
class FupPacket(Packet):
    """An async position marker: post-PSB anchor or snapshot stop point."""

    uid: int = 0


@dataclass(frozen=True)
class PsbPacket(Packet):
    pass


def encode_tnt(bits: list[bool]) -> bytes:
    packet = _TNT_PACKETS.get(tuple(bits))
    if packet is not None:
        return packet
    if not 1 <= len(bits) <= TNT_MAX_BITS:
        raise ValueError(f"TNT packet carries 1..{TNT_MAX_BITS} bits, got {len(bits)}")
    payload = 0
    for i, bit in enumerate(bits):
        if bit:
            payload |= 1 << i
    return bytes([TAG_TNT_BASE + len(bits), payload])


def encode_tip(uid: int) -> bytes:
    return bytes([TAG_TIP]) + struct.pack("<Q", uid)


def encode_mtc(counter: int) -> bytes:
    return bytes([TAG_MTC, counter & 0xFF])


def encode_mtc_run(counter: int, count: int, keep: int | None = None) -> bytes:
    """The last ``keep`` bytes (all ``2 * count`` by default) of
    ``encode_mtc(counter) + encode_mtc(counter + 1) + ...``, ``count``
    packets long, sliced from the counter cycle."""
    size = 2 * count
    if keep is None or keep > size:
        keep = size
    start = (2 * counter + size - keep) % _MTC_LAP
    end = start + keep
    if end <= 2 * _MTC_LAP:
        return _MTC_LAPS[start:end]
    return (_MTC_CYCLE * (end // _MTC_LAP + 1))[start:end]


def encode_tsc(time: int) -> bytes:
    return bytes([TAG_TSC]) + struct.pack("<Q", time)


def encode_fup(uid: int) -> bytes:
    return bytes([TAG_FUP]) + struct.pack("<Q", uid)


def encode_psb() -> bytes:
    return PSB_BYTES


def find_psb(data: bytes, start: int = 0) -> int:
    """Offset of the first full PSB at or after ``start``, or -1."""
    return data.find(PSB_BYTES, start)


# -- lexing -------------------------------------------------------------------

# Packet kinds as :func:`lex` reports them.  The timing kinds come first,
# so "is this a timing packet?" is one comparison: ``kind <= K_TSC``.
K_MTC, K_TSC, K_PSB, K_TNT, K_TIP, K_FUP = range(6)
KIND_NAMES = ("mtc", "tsc", "psb", "tnt", "tip", "fup")

# _MTC_LAP_FROM[c]: the 512 bytes of the 256 MTC packets counting up
# from counter c, as bytes and as a little-endian int.  The run scan
# tests the stream against the bytes with ``startswith`` at an offset
# (which copies nothing) and finds where a partial lap breaks off with
# one XOR of ints.
_MTC_LAP_FROM: tuple[bytes, ...] = tuple(
    _MTC_LAPS[2 * c : 2 * c + _MTC_LAP] for c in range(256)
)
_MTC_LAP_INTS: tuple[int, ...] = tuple(
    int.from_bytes(lap, "little") for lap in _MTC_LAP_FROM
)

# The first ticks after a run's first are stepped packet by packet
# before the lap scan takes over: a third of all runs are one tick.
_SHORT_RUN = 2

_u64 = struct.Struct("<Q").unpack_from

# The kind of each 9-byte packet (tag + u64) by its tag, None otherwise.
_WIDE_KINDS: tuple[int | None, ...] = tuple(
    {TAG_TSC: K_TSC, TAG_FUP: K_FUP, TAG_TIP: K_TIP}.get(tag) for tag in range(256)
)


def _mtc_run_length(data: bytes, i: int) -> int:
    """Complete packets in the +1-stepping MTC run at ``data[i]``, which
    must hold one complete MTC packet."""
    n = len(data)
    j = i + 2  # the next packet of the run would start here ...
    c = (data[i + 1] + 1) & 0xFF  # ... with this counter
    for _ in range(_SHORT_RUN):
        if j + 1 >= n or data[j] != TAG_MTC or data[j + 1] != c:
            return (j - i) // 2
        j += 2
        c = (c + 1) & 0xFF
    lap = _MTC_LAP_FROM[c]
    while data.startswith(lap, j):
        j += _MTC_LAP  # a whole lap leaves the counter where it was
    # the rest is shorter than a lap: its first byte that differs from
    # the cycle holds the lowest set bit of an XOR.  A tail cut short
    # reads as zeros past its end, where the cycle's tag bytes differ
    # (a zero counter byte may not: hence the min).
    tail = data[j : j + _MTC_LAP]
    diff = int.from_bytes(tail, "little") ^ _MTC_LAP_INTS[c]
    same = min((diff & -diff).bit_length() - 1 >> 3, len(tail))
    return (j - i + same) // 2


def lex(data: bytes, start: int = 0) -> list[tuple]:
    """Every packet of ``data`` from ``start`` on, as flat tuples
    ``(kind, offset, value, count)``.

    ``kind`` is one of ``K_MTC`` .. ``K_FUP``.  ``value`` is the TNT flag
    tuple (oldest first), the TIP/FUP uid, the TSC time or the first
    MTC counter (0 for a PSB).  ``count`` is the number of TNT flags or
    MTC packets (1 otherwise): each maximal run of MTCs whose counters
    step by +1 (mod 256) is one entry.

    ``start`` must point at a packet boundary (normally a PSB found via
    :func:`find_psb`).  Raises :class:`TraceDecodeError` on an unknown
    tag or a corrupt PSB.  A truncated trailing packet ends the list
    silently (the ring was snapshotted mid-write, which is legal); a
    short tail counts as a truncated PSB only if it is a prefix of
    ``PSB_BYTES``.
    """
    out: list[tuple] = []
    append = out.append
    wide_kinds = _WIDE_KINDS
    tnt_bits = _TNT_BITS
    n = len(data)
    i = start
    while i < n:
        tag = data[i]
        kind = wide_kinds[tag]
        if kind is not None:
            if i + 9 > n:
                break
            append((kind, i, _u64(data, i + 1)[0], 1))
            i += 9
        elif TAG_TNT_BASE < tag <= TAG_TNT_BASE + TNT_MAX_BITS:
            if i + 1 >= n:
                break
            count = tag - TAG_TNT_BASE
            append((K_TNT, i, tnt_bits[count][data[i + 1]], count))
            i += 2
        elif tag == TAG_MTC:
            if i + 1 >= n:
                break
            count = _mtc_run_length(data, i)
            append((K_MTC, i, data[i + 1], count))
            i += 2 * count
        elif tag == TAG_PAD:
            i += 1
        elif tag == PSB_BYTES[0]:
            if data.startswith(PSB_BYTES, i):
                append((K_PSB, i, 0, 1))
                i += len(PSB_BYTES)
            elif n - i < len(PSB_BYTES) and PSB_BYTES.startswith(data[i:]):
                break  # truncated trailing PSB
            else:
                raise TraceDecodeError(f"corrupt PSB at offset {i}")
        else:
            raise TraceDecodeError(f"unknown packet tag 0x{tag:02x} at offset {i}")
    return out


# -- packet-object views (tests and packet counts; the decoder reads lex) --


def parse_runs(data: bytes, start: int = 0):
    """Yield :func:`lex`'s packets as :class:`Packet` objects: each run
    of MTCs whose counters step by +1 is one :class:`MtcRunPacket`."""
    for kind, offset, value, count in lex(data, start):
        if kind == K_MTC:
            yield MtcRunPacket("mtc", offset, value, count)
        elif kind == K_TNT:
            yield TntPacket("tnt", offset, value)
        elif kind == K_TSC:
            yield TscPacket("tsc", offset, value)
        elif kind == K_TIP:
            yield TipPacket("tip", offset, value)
        elif kind == K_FUP:
            yield FupPacket("fup", offset, value)
        else:
            yield PsbPacket("psb", offset)


def parse_packets(data: bytes, start: int = 0):
    """Like :func:`parse_runs`, but one :class:`MtcPacket` per tick."""
    for pkt in parse_runs(data, start):
        if isinstance(pkt, MtcRunPacket):
            for k in range(pkt.count):
                yield MtcPacket("mtc", pkt.offset + 2 * k, (pkt.counter + k) & 0xFF)
        else:
            yield pkt
