"""Fixed-capacity byte ring buffer, one per traced thread.

Mirrors the Snorlax driver's ring-buffer mode (§5): the trace stays in
memory, old bytes are overwritten once the buffer fills, and nothing is
written to persistent storage until a snapshot is requested (at failure
time or on demand).  ``snapshot()`` linearizes the surviving bytes in
write order; decoding then re-synchronizes at the first intact PSB.

The bytes live in an append-only ``bytearray`` that is trimmed to the
newest ``capacity`` bytes once it reaches twice that: a write is one
append, and a trim moves each byte at most once, instead of index
arithmetic around a wrap point on every write.
"""

from __future__ import annotations


class RingBuffer:
    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf = bytearray()
        self.total_written = 0

    def write(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        self.total_written += len(data)
        if len(buf) >= 2 * self.capacity:
            del buf[: -self.capacity]

    def write_tail(
        self, tail: bytes, total: int, before: bytes = b"", after: bytes = b""
    ) -> None:
        """Write ``before``, then a ``total``-byte run of which only
        ``tail``, its last ``min(total, capacity)`` bytes, is
        materialized, then ``after``, as one append: every earlier byte
        of the run, and ``before`` too when the run fills the ring,
        would be overwritten before it could be read."""
        capacity = self.capacity
        if len(tail) != (total if total < capacity else capacity):
            raise ValueError("tail must hold every byte that survives the write")
        buf = self._buf
        buf += before
        buf += tail
        buf += after
        self.total_written += len(before) + total + len(after)
        if len(buf) >= 2 * capacity:
            del buf[:-capacity]

    @property
    def wrapped(self) -> bool:
        return self.total_written > self.capacity

    def snapshot(self, suffix: bytes = b"") -> bytes:
        """The surviving bytes, oldest first, then ``suffix``, copied
        once."""
        return b"".join((memoryview(self._buf)[-self.capacity :], suffix))

    def clear(self) -> None:
        self._buf.clear()
        self.total_written = 0
