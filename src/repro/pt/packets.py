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

MTC runs.  Between two control events the stream holds nothing but MTC
ticks, one per period, whose counters step by +1 (mod 256): an
arithmetic progression.  Both ends handle such a run in closed form
without changing a byte.  :func:`encode_mtc_run` slices a run's bytes
out of the 512-byte counter cycle, and :func:`parse_runs` coalesces a
run into one :class:`MtcRunPacket`, finding its end by comparing
512-byte slices of the stream against the same cycle.
:func:`parse_packets` still yields one :class:`MtcPacket` per tick.
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
    keep = size if keep is None else min(keep, size)
    start = (2 * counter + size - keep) % _MTC_LAP
    if start + keep <= len(_MTC_LAPS):
        return _MTC_LAPS[start : start + keep]
    return (_MTC_CYCLE * ((start + keep) // _MTC_LAP + 1))[start : start + keep]


def encode_tsc(time: int) -> bytes:
    return bytes([TAG_TSC]) + struct.pack("<Q", time)


def encode_fup(uid: int) -> bytes:
    return bytes([TAG_FUP]) + struct.pack("<Q", uid)


def encode_psb() -> bytes:
    return PSB_BYTES


def find_psb(data: bytes, start: int = 0) -> int:
    """Offset of the first full PSB at or after ``start``, or -1."""
    return data.find(PSB_BYTES, start)


def parse_packets(data: bytes, start: int = 0):
    """Yield packets from ``data`` beginning at ``start``, one per packet.

    ``start`` must point at a packet boundary (normally a PSB found via
    :func:`find_psb`).  Raises :class:`TraceDecodeError` on unknown tags;
    a truncated trailing packet ends iteration silently (the ring was
    snapshotted mid-write, which is legal).
    """
    for pkt in parse_runs(data, start):
        if isinstance(pkt, MtcRunPacket):
            for k in range(pkt.count):
                yield MtcPacket("mtc", pkt.offset + 2 * k, (pkt.counter + k) & 0xFF)
        else:
            yield pkt


def _mtc_run_length(data: bytes, i: int) -> int:
    """Complete packets in the +1-stepping MTC run at ``data[i]``, which
    must hold one complete MTC packet."""
    c = 2 * data[i + 1]
    lap = _MTC_LAPS[c : c + _MTC_LAP]
    j = i
    while data[j : j + _MTC_LAP] == lap:
        j += _MTC_LAP
    # the next lap breaks off: gallop, then bisect, for the packets
    # data[j:] shares with the cycle (lo match, hi do not)
    lo, hi = 0, 1
    while hi < 256 and data[j : j + 2 * hi] == lap[: 2 * hi]:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if data[j : j + 2 * mid] == lap[: 2 * mid]:
            lo = mid
        else:
            hi = mid
    return (j - i) // 2 + lo


def parse_runs(data: bytes, start: int = 0):
    """Like :func:`parse_packets`, but each run of MTCs whose counters
    step by +1 comes out as one :class:`MtcRunPacket`."""
    i = start
    n = len(data)
    while i < n:
        tag = data[i]
        if tag == TAG_PAD:
            i += 1
            continue
        if tag == PSB_BYTES[0]:
            if data[i : i + len(PSB_BYTES)] == PSB_BYTES:
                yield PsbPacket("psb", i)
                i += len(PSB_BYTES)
                continue
            if i + len(PSB_BYTES) > n:
                return  # truncated trailing PSB
            raise TraceDecodeError(f"corrupt PSB at offset {i}")
        if TAG_TNT_BASE < tag <= TAG_TNT_BASE + TNT_MAX_BITS:
            count = tag - TAG_TNT_BASE
            if i + 1 >= n:
                return
            yield TntPacket("tnt", i, _TNT_BITS[count][data[i + 1]])
            i += 2
            continue
        if tag == TAG_MTC:
            if i + 1 >= n:
                return
            count = _mtc_run_length(data, i)
            yield MtcRunPacket("mtc", i, data[i + 1], count)
            i += 2 * count
            continue
        if tag == TAG_TIP:
            if i + 9 > n:
                return
            (uid,) = struct.unpack_from("<Q", data, i + 1)
            yield TipPacket("tip", i, uid)
            i += 9
            continue
        if tag == TAG_TSC:
            if i + 9 > n:
                return
            (time,) = struct.unpack_from("<Q", data, i + 1)
            yield TscPacket("tsc", i, time)
            i += 9
            continue
        if tag == TAG_FUP:
            if i + 9 > n:
                return
            (uid,) = struct.unpack_from("<Q", data, i + 1)
            yield FupPacket("fup", i, uid)
            i += 9
            continue
        raise TraceDecodeError(f"unknown packet tag 0x{tag:02x} at offset {i}")
