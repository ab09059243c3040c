"""Fixed-capacity byte ring buffer, one per traced thread.

Mirrors the Snorlax driver's ring-buffer mode (§5): the trace stays in
memory, old bytes are overwritten once the buffer fills, and nothing is
written to persistent storage until a snapshot is requested (at failure
time or on demand).  ``snapshot()`` linearizes the surviving bytes in
write order; decoding then re-synchronizes at the first intact PSB.
"""

from __future__ import annotations


class RingBuffer:
    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf = bytearray(capacity)
        self._write_pos = 0
        self.total_written = 0

    def write(self, data: bytes) -> None:
        n = len(data)
        if n == 0:
            return
        if n >= self.capacity:
            # Only the newest `capacity` bytes survive.
            self._buf[:] = data[-self.capacity :]
            self._write_pos = 0
            self.total_written += n
            return
        end = self._write_pos + n
        if end <= self.capacity:
            self._buf[self._write_pos : end] = data
            self._write_pos = end % self.capacity
        else:
            first = self.capacity - self._write_pos
            self._buf[self._write_pos :] = data[:first]
            rest = n - first
            self._buf[:rest] = data[first:]
            self._write_pos = rest
        self.total_written += n

    def write_tail(self, tail: bytes, total: int) -> None:
        """Account a ``total``-byte write of which only ``tail``, its
        last ``min(total, capacity)`` bytes, is materialized: every
        earlier byte would be overwritten before it could be read."""
        if len(tail) != min(total, self.capacity):
            raise ValueError("tail must hold every byte that survives the write")
        self.write(tail)
        self.total_written += total - len(tail)

    @property
    def wrapped(self) -> bool:
        return self.total_written > self.capacity

    def snapshot(self) -> bytes:
        """The surviving bytes, oldest first."""
        if not self.wrapped:
            return bytes(self._buf[: self.total_written])
        return bytes(self._buf[self._write_pos :]) + bytes(self._buf[: self._write_pos])

    def clear(self) -> None:
        self._write_pos = 0
        self.total_written = 0
