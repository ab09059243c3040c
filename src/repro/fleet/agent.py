"""The endpoint agent: one production machine of the fleet.

An agent owns a :class:`SnorlaxClient` for the program it runs.  It does
two things, both over a single TCP connection to the fleet server:

* **Report failures** (Figure 2 step 1): run the production workload;
  when an execution fails, ship the error-tracker notification plus the
  failing trace sample, then wait for the fleet-wide diagnosis (serving
  trace requests in the meantime — the reporting endpoint is as good a
  source of successful traces as any other).
* **Answer trace batches** (step 8): execute each requested seed with
  the requested breakpoints/skip and return the snapshots — the same
  :func:`~repro.runtime.server.run_trace_request` that
  ``SnorlaxServer.handle_trace_request`` runs in-process.

Agents are deliberately synchronous (blocking socket, one thread each):
a real endpoint is a separate machine, and the simulation runs ≥50 of
them as threads against the asyncio server.

Production endpoints do not get a polite localhost: frames arrive
damaged, the server restarts, the process itself dies and comes back.
So connection failures are *survivable* here, not fatal — on any
:class:`WireError`/``ConnectionError``/``OSError`` the agent drops the
socket and reconnects with exponential backoff plus deterministic
jitter (seeded per agent id, so a simulated fleet's retry storm is
reproducible).  A reporting agent that loses its connection re-sends
its failure envelope after reconnecting; the server's signature dedup
makes the re-report idempotent, and an already-finished diagnosis is
delivered from the job cache immediately.
"""

from __future__ import annotations

import socket
import threading
import time
from random import Random

from repro.errors import FleetError, WireError
from repro.fleet.wire import (
    DiagnosisResult,
    FailureEnvelope,
    Goodbye,
    Heartbeat,
    Hello,
    MonitorSample,
    Reject,
    TraceBatchRequest,
    TraceBatchResponse,
    WireFault,
    recv_frame_sock,
    send_frame_sock,
)
from repro.ir.module import Module
from repro.runtime.client import ClientRun, SnorlaxClient, Workload
from repro.runtime.protocol import FailureNotification
from repro.runtime.server import run_trace_request, sample_from_run

_POLL_S = 0.1  # socket timeout used to poll stop events
_RECOVERABLE = (ConnectionError, WireError, OSError)


class FleetAgent:
    def __init__(
        self,
        agent_id: str,
        bug_id: str,
        module: Module,
        workload: Workload,
        host: str,
        port: int,
        entry: str = "main",
        connect_timeout: float = 10.0,
        fault_engine=None,
        reconnect_attempts: int = 8,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        frame_timeout: float = 30.0,
    ):
        self.agent_id = agent_id
        self.bug_id = bug_id
        self.client = SnorlaxClient(module, workload, entry=entry)
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        # fault injection: when set, every socket this agent opens is
        # wrapped so the chaos plan's per-endpoint stream applies
        self.fault_engine = fault_engine
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.frame_timeout = frame_timeout
        self.trace_requests_served = 0
        self.rejections = 0
        self.reconnects = 0
        self.failure_resends = 0
        self._sock: socket.socket | None = None
        # deterministic jitter: a fleet's backoff pattern replays
        self._backoff_rng = Random(f"snorlax-agent-backoff|{agent_id}")

    @classmethod
    def from_spec(
        cls, agent_id: str, spec, host: str, port: int, **kwargs
    ) -> "FleetAgent":
        """Build an agent for a corpus bug (module cached on the spec)."""
        return cls(
            agent_id,
            spec.bug_id,
            spec.module(),
            spec.workload,
            host,
            port,
            entry=spec.entry,
            **kwargs,
        )

    # -- connection --------------------------------------------------------

    def connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        # small request/response frames ping-pong on this socket; Nagle
        # + delayed ACK would add ~40ms to every collection round-trip
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_POLL_S)
        if self.fault_engine is not None:
            sock = self.fault_engine.wrap(sock)
        self._sock = sock
        self._send(Hello(agent_id=self.agent_id, bug_id=self.bug_id))

    def connect_resilient(self, stop: threading.Event | None = None) -> None:
        """First connection with the same survivability as reconnection:
        a HELLO damaged in flight (truncated, corrupted) retries with
        backoff instead of killing the agent before it ever joined."""
        try:
            self.connect()
        except _RECOVERABLE:
            if not self._reconnect(stop):
                raise FleetError(
                    f"agent {self.agent_id}: could not reach the fleet server"
                ) from None

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._send(Goodbye(agent_id=self.agent_id))
        except OSError:
            pass
        self._sock.close()
        self._sock = None

    def _send(self, msg, request_id: int = 0) -> None:
        if self._sock is None:
            raise FleetError(f"agent {self.agent_id} is not connected")
        send_frame_sock(self._sock, msg, request_id)

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect(self, stop: threading.Event | None = None) -> bool:
        """Exponential backoff + jitter until connected; False when the
        attempt budget is spent or ``stop`` was set (give up cleanly)."""
        self._drop_socket()
        for attempt in range(self.reconnect_attempts):
            delay = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
            delay *= 0.5 + self._backoff_rng.random()  # jitter in [0.5, 1.5)
            if stop is not None:
                if stop.wait(delay):
                    return False
            else:
                time.sleep(delay)
            try:
                self.connect()
            except OSError:
                self._drop_socket()
                continue
            self.reconnects += 1
            return True
        return False

    # -- serving -----------------------------------------------------------

    def serve_until(self, stop: threading.Event) -> None:
        """Answer trace requests until asked to stop (an idle endpoint).

        Connection damage — a corrupt frame, the server restarting, an
        injected crash — is survived by reconnecting with backoff; the
        agent only returns once ``stop`` is set or reconnection is
        exhausted (the server is genuinely gone).
        """
        while not stop.is_set():
            try:
                frame = self._recv_poll()
                if frame is None:
                    continue
                msg, request_id = frame
                if isinstance(msg, TraceBatchRequest):
                    self._serve_trace_batch(msg, request_id)
                # anything else while idle (late results for a signature
                # we also reported) is informational; drop it
            except _RECOVERABLE:
                if not self._reconnect(stop):
                    return

    def _serve_trace_batch(self, batch: TraceBatchRequest, request_id: int) -> None:
        """Run a whole speculative wave chunk and answer with one frame.

        Executions are sequential on this endpoint (one CPU's worth of
        production machine); the fan-out parallelism lives on the server
        side, which shards the wave across many agents.
        """
        responses = tuple(run_trace_request(self.client, r) for r in batch.requests)
        self.trace_requests_served += len(responses)
        self._send(TraceBatchResponse(responses=responses), request_id)

    def _recv_poll(self, timeout: float | None = None):
        """One poll for an inbound frame; None on quiet.  ``timeout``
        overrides the default 100ms poll for callers with their own
        cadence (the monitor loop drains between samples at ~5ms)."""
        if self._sock is None:
            raise FleetError(f"agent {self.agent_id} is not connected")
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            return recv_frame_sock(self._sock, frame_timeout=self.frame_timeout)
        except socket.timeout:
            return None
        finally:
            if timeout is not None and self._sock is not None:
                self._sock.settimeout(_POLL_S)

    # -- failure reporting -------------------------------------------------

    def find_failure(self, start_seed: int = 0) -> ClientRun:
        runs = self.client.find_runs(True, 1, start_seed=start_seed)
        if not runs:
            raise FleetError(f"agent {self.agent_id}: no failing run found")
        return runs[0]

    def report_failure(
        self,
        failing_run: ClientRun,
        stop: threading.Event | None = None,
        max_wait: float = 300.0,
        max_server_faults: int = 3,
    ) -> DiagnosisResult:
        """Ship a failure, keep serving trace requests, return the
        diagnosis.  Backpressure rejections are honored by sleeping the
        server's retry-after hint and resending; connection loss is
        honored by reconnecting and resending (signature dedup makes the
        re-report idempotent)."""
        if failing_run.failure is None or failing_run.snapshot is None:
            raise FleetError("failing run carries no failure/snapshot")
        code = failing_run.failure
        envelope = FailureEnvelope(
            bug_id=self.bug_id,
            seed=failing_run.seed,
            notification=FailureNotification(
                bug_hint=self.bug_id,
                failing_uid=code.failing_uid,
                failing_tid=code.failing_tid,
                time=code.time,
            ),
            sample=sample_from_run("failure", failing_run),
        )
        server_faults = 0
        self._send_resilient(envelope, stop)
        deadline = time.monotonic() + max_wait
        while time.monotonic() < deadline and (stop is None or not stop.is_set()):
            try:
                frame = self._recv_poll()
                if frame is None:
                    continue
                msg, request_id = frame
                if isinstance(msg, TraceBatchRequest):
                    # the reporting endpoint still serves step-8 collection
                    self._serve_trace_batch(msg, request_id)
                elif isinstance(msg, DiagnosisResult):
                    return msg
                elif isinstance(msg, Reject):
                    self.rejections += 1
                    time.sleep(msg.retry_after)
                    self._send(envelope)
                elif isinstance(msg, WireFault):
                    # a failed diagnosis or protocol fault is retryable:
                    # the job queue evicts failed signatures, so a
                    # re-report runs the diagnosis again
                    server_faults += 1
                    if server_faults > max_server_faults:
                        raise FleetError(
                            f"agent {self.agent_id}: server error: {msg.message}"
                        )
                    time.sleep(self.backoff_base_s)
                    self._resend(envelope, stop)
            except _RECOVERABLE:
                self._resend(envelope, stop)
        raise FleetError(
            f"agent {self.agent_id}: no diagnosis within {max_wait:.0f}s"
        )

    def _resend(self, envelope: FailureEnvelope, stop) -> None:
        """Reconnect and re-report after a damaged connection."""
        if not self._reconnect(stop):
            raise FleetError(f"agent {self.agent_id}: lost the fleet server")
        self.failure_resends += 1
        self._send_resilient(envelope, stop)

    def _send_resilient(self, envelope: FailureEnvelope, stop) -> None:
        while True:
            try:
                self._send(envelope)
                return
            except _RECOVERABLE:
                if not self._reconnect(stop):
                    raise FleetError(
                        f"agent {self.agent_id}: lost the fleet server"
                    ) from None
                self.failure_resends += 1

    def produce_and_report(
        self, stop: threading.Event | None = None, start_seed: int = 0
    ) -> DiagnosisResult:
        """The full endpoint story: hit the bug in production, report it,
        help collect evidence, receive the root cause."""
        return self.report_failure(self.find_failure(start_seed), stop=stop)


class MonitorLoop:
    """The always-on half of an endpoint: heartbeats + sampled telemetry.

    Where :meth:`FleetAgent.report_failure` is request/response (hit a
    failure, ship it, wait), the monitor loop runs forever: on a timer it
    sends a :class:`Heartbeat` (liveness) and executes one production
    sample (the next seed in sequence), shipping the outcome as a
    :class:`MonitorSample` — evidence attached only when the run failed.
    The server's anomaly detector decides when the stream is hot enough
    to diagnose; this side never asks.

    Time is injected: :meth:`tick` takes ``now`` explicitly, so the soak
    harness drives hours of fleet time through a compressed clock while
    :meth:`run` is the thin real-time wrapper production would use.
    Sampling walks seeds sequentially from ``start_seed`` — the same
    walk :meth:`FleetAgent.find_failure` does — so the first failing
    sample the monitor ships is byte-identical to the envelope a
    reporting endpoint would have sent, and anomaly-triggered diagnoses
    digest identically to on-demand ones.

    Between timer events the loop drains inbound frames and serves trace
    requests: a monitored endpoint is still step-8 labor for whatever
    diagnosis its own telemetry triggered.
    """

    def __init__(
        self,
        agent: FleetAgent,
        heartbeat_interval_s: float = 1.0,
        sample_interval_s: float = 0.5,
        start_seed: int = 0,
        clock=time.monotonic,
        drain_timeout_s: float = 0.005,
    ):
        self.agent = agent
        self.heartbeat_interval_s = heartbeat_interval_s
        self.sample_interval_s = sample_interval_s
        self.clock = clock
        self.drain_timeout_s = drain_timeout_s
        self.seq = 0
        self.samples_sent = 0
        self.failures_seen = 0
        self.trace_requests_served = 0
        self._next_seed = start_seed
        self._started_at: float | None = None
        self._next_heartbeat = 0.0
        self._next_sample = 0.0

    def tick(self, now: float | None = None, stop: threading.Event | None = None) -> list[str]:
        """One scheduling step at time ``now``: drain inbound, then fire
        whichever timers are due.  Returns event labels (``"heartbeat"``,
        ``"sample:success"``, ``"sample:failure"``, ``"reconnect"``) for
        harnesses that assert on cadence."""
        if now is None:
            now = self.clock()
        if self._started_at is None:
            # first tick: both timers fire immediately
            self._started_at = now
            self._next_heartbeat = now
            self._next_sample = now
        events: list[str] = []
        try:
            self._drain()
            if now >= self._next_heartbeat:
                self._heartbeat(now)
                events.append("heartbeat")
                self._next_heartbeat = now + self.heartbeat_interval_s
            if now >= self._next_sample:
                events.append(self._sample())
                self._next_sample = now + self.sample_interval_s
        except _RECOVERABLE:
            if not self.agent._reconnect(stop):
                raise FleetError(
                    f"agent {self.agent.agent_id}: lost the fleet server"
                ) from None
            events.append("reconnect")
        return events

    def run(self, stop: threading.Event, tick_s: float = 0.01) -> None:
        """Real-time wrapper: tick on the wall clock until stopped."""
        while not stop.is_set():
            self.tick(self.clock(), stop=stop)
            stop.wait(tick_s)

    def _drain(self) -> None:
        """Serve every inbound frame already on the wire, then return."""
        while True:
            frame = self.agent._recv_poll(timeout=self.drain_timeout_s)
            if frame is None:
                return
            msg, request_id = frame
            if isinstance(msg, TraceBatchRequest):
                self.agent._serve_trace_batch(msg, request_id)
                self.trace_requests_served += len(msg.requests)
            # DiagnosisResult / WireFault while monitoring are
            # informational (the server diagnoses unprompted); drop them

    def _heartbeat(self, now: float) -> None:
        self.agent._send(
            Heartbeat(
                agent_id=self.agent.agent_id,
                seq=self.seq,
                uptime_s=now - (self._started_at or now),
                samples_sent=self.samples_sent,
                failures_seen=self.failures_seen,
            )
        )
        self.seq += 1

    def _sample(self) -> str:
        """Execute the next seed and ship its outcome as telemetry."""
        seed = self._next_seed
        self._next_seed += 1
        run = self.agent.client.run_once(seed)
        failing = run.failure is not None and run.snapshot is not None
        if failing:
            msg = MonitorSample(
                bug_id=self.agent.bug_id,
                seed=seed,
                outcome="failure",
                hang=run.failure.kind in ("deadlock", "hang"),
                sample=sample_from_run("failure", run),
            )
            self.failures_seen += 1
        else:
            msg = MonitorSample(
                bug_id=self.agent.bug_id,
                seed=seed,
                outcome="success",
                hang=False,
                sample=None,
            )
        self.agent._send(msg)
        self.samples_sent += 1
        return f"sample:{msg.outcome}"
