"""Deterministic fault injection for the fleet transport.

In production the network misbehaves: frames arrive damaged or not at
all, links are slow, endpoint processes die mid-request, and the
diagnosis server itself restarts.  The fleet must keep producing
byte-identical diagnoses through all of it — trace collection is
deterministic in (seed, breakpoints, skip), so a lost or mangled
request can always be re-issued and yields the same evidence.

This module makes that failure weather *reproducible*.  A
:class:`FaultPlan` is a pure description of fault rates plus a seed;
:meth:`FaultPlan.engine` derives one :class:`FaultEngine` per endpoint
whose decision stream comes from ``random.Random(seed | endpoint_id)``
— no wall-clock entropy, so a given plan replays the same faults for
the same sequence of transport operations.  The engine wraps an
agent's TCP socket in a :class:`ChaosSocket` that mangles traffic at
frame granularity:

* **corrupt** — flip a byte anywhere in an outbound frame (the crc32
  rejects it on the far side) or in inbound bytes;
* **truncate** — send a prefix of the frame, then cut the connection
  (what a peer dying mid-``send`` looks like);
* **drop** — swallow an outbound ``TraceResponse`` whole (the server's
  per-request timeout fires and the request is rerouted);
* **delay / slow link** — sleep before a send, or pace bytes at a
  configured throughput;
* **crash** — the agent process dies right before answering a trace
  request (socket hard-closed, :class:`AgentCrashed` raised into the
  serving loop, which models the process restarting via reconnect).

Liveness-critical frames (``HELLO``, ``FAILURE``, ``GOODBYE``) are
never silently dropped — a real network can lose them too, but then
the *sender* notices the missing reply and retries; our agents retry
at reconnect granularity, so chaos models loss of those frames as
corruption or truncation (both sever the connection and force a
reconnect) rather than as a silent swallow that no timeout guards.

``server_restart_after_s`` is scheduled by the simulation, not the
socket wrapper: the fleet server drops its listener and every
connection mid-run, then listens again on the same port, and the
agents' reconnect/backoff machinery re-forms the fleet.
"""

from __future__ import annotations

import socket
import time
from collections import Counter
from dataclasses import dataclass, field
from random import Random

from repro.fleet.wire import HEADER_SIZE, MsgType, decode_header

_NEVER_DROPPED = frozenset(
    {MsgType.HELLO, MsgType.FAILURE, MsgType.GOODBYE}
)


class AgentCrashed(ConnectionError):
    """Injected: the endpoint process died mid-request."""


class LinkCut(ConnectionError):
    """Injected: the link went away mid-frame (truncation)."""


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of how the network misbehaves.

    Rates are per-frame probabilities drawn from the per-endpoint
    seeded stream; ``0.0`` disables a fault class.  The plan object is
    immutable and shareable — per-endpoint mutable state lives in the
    :class:`FaultEngine` it derives.
    """

    seed: int = 0
    corrupt_rate: float = 0.0  # flip a byte in an outbound frame
    truncate_rate: float = 0.0  # cut the frame (and the connection) short
    drop_rate: float = 0.0  # swallow an outbound TraceResponse whole
    delay_rate: float = 0.0  # sleep before sending a frame
    max_delay_s: float = 0.05  # uniform(0, max) per delayed frame
    inbound_corrupt_rate: float = 0.0  # flip a byte in received chunks
    crash_rate: float = 0.0  # die right before answering a request
    max_crashes_per_agent: int = 2  # bound injected crashes (liveness)
    slow_link_bytes_per_s: float | None = None  # pace outbound throughput
    server_restart_after_s: float | None = None  # simulation-level event

    @property
    def wraps_sockets(self) -> bool:
        """Does this plan inject anything at the socket layer?"""
        return any(
            rate > 0.0
            for rate in (
                self.corrupt_rate,
                self.truncate_rate,
                self.drop_rate,
                self.delay_rate,
                self.inbound_corrupt_rate,
                self.crash_rate,
            )
        ) or self.slow_link_bytes_per_s is not None

    @property
    def active(self) -> bool:
        return self.wraps_sockets or self.server_restart_after_s is not None

    def engine(self, endpoint_id: str) -> "FaultEngine":
        """The per-endpoint fault stream; deterministic in (seed, id)."""
        return FaultEngine(self, endpoint_id)


@dataclass
class FaultEngine:
    """One endpoint's seeded fault decisions plus injected-fault counts.

    The same engine survives reconnects (each new socket is wrapped by
    the same engine), so an endpoint's decision stream is a single
    seeded sequence across its whole lifetime.
    """

    plan: FaultPlan
    endpoint_id: str
    counts: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        # str seeding hashes the bytes (not PYTHONHASHSEED), so the
        # stream is reproducible across processes and runs
        self.rng = Random(f"snorlax-chaos|{self.plan.seed}|{self.endpoint_id}")

    def wrap(self, sock: socket.socket) -> "ChaosSocket":
        return ChaosSocket(sock, self)

    # -- decisions ----------------------------------------------------------

    def _roll(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def _corrupted(self, data: bytes) -> bytes:
        buf = bytearray(data)
        index = self.rng.randrange(len(buf))
        buf[index] ^= self.rng.randrange(1, 256)  # non-zero mask: a real flip
        return bytes(buf)

    # -- outbound (one sendall == one frame) --------------------------------

    def send_frame(self, sock: socket.socket, data: bytes) -> None:
        """Apply the plan to one outbound frame and send what survives."""
        plan = self.plan
        try:
            msg_type, _, _, _ = decode_header(data[:HEADER_SIZE])
        except Exception:
            msg_type = None  # unknowable: treat as droppable payload
        if self._roll(plan.delay_rate):
            self.counts["delayed"] += 1
            time.sleep(self.rng.uniform(0.0, plan.max_delay_s))
        # "dies right before answering": an agent answers trace
        # requests with one batch frame per wave chunk
        if (
            msg_type == MsgType.TRACE_BATCH_RESPONSE
            and self.counts["crashes"] < plan.max_crashes_per_agent
            and self._roll(plan.crash_rate)
        ):
            self.counts["crashes"] += 1
            sock.close()
            raise AgentCrashed(
                f"chaos: {self.endpoint_id} crashed before answering"
            )
        if msg_type not in _NEVER_DROPPED and self._roll(plan.drop_rate):
            self.counts["dropped"] += 1
            return  # the far side's per-request timeout reroutes it
        if self._roll(plan.truncate_rate) and len(data) > 1:
            self.counts["truncated"] += 1
            cut = self.rng.randrange(1, len(data))
            self._paced_send(sock, data[:cut])
            sock.close()
            raise LinkCut(f"chaos: link to {self.endpoint_id} cut mid-frame")
        if self._roll(plan.corrupt_rate):
            self.counts["corrupted"] += 1
            data = self._corrupted(data)
        self._paced_send(sock, data)

    def _paced_send(self, sock: socket.socket, data: bytes) -> None:
        rate = self.plan.slow_link_bytes_per_s
        if rate:
            time.sleep(len(data) / rate)
        sock.sendall(data)

    # -- inbound -------------------------------------------------------------

    def recv_chunk(self, data: bytes) -> bytes:
        """Apply inbound faults to one received chunk."""
        if data and self._roll(self.plan.inbound_corrupt_rate):
            self.counts["inbound_corrupted"] += 1
            return self._corrupted(data)
        return data


class ChaosSocket:
    """A stream socket whose traffic passes through a FaultEngine.

    Quacks like the subset of :class:`socket.socket` the fleet agent
    uses (``sendall``/``recv``/``settimeout``/``close``).  Each
    ``sendall`` is one wire frame — the agent sends whole frames — so
    faults land on frame boundaries, the granularity the wire codec's
    crc32 and the server's per-request timeout are built to absorb.
    """

    def __init__(self, sock: socket.socket, engine: FaultEngine):
        self._sock = sock
        self.engine = engine

    def sendall(self, data: bytes) -> None:
        self.engine.send_frame(self._sock, data)

    def recv(self, bufsize: int) -> bytes:
        return self.engine.recv_chunk(self._sock.recv(bufsize))

    def settimeout(self, value: float | None) -> None:
        self._sock.settimeout(value)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()
