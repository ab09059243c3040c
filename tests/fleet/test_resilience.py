"""Resilience hardening: the specific failure modes the chaos layer
flushed out, pinned as regression tests.

* a duplicate/reconnect ``Hello`` supersedes the stale connection
  instead of leaking it in the rotation;
* a hung endpoint times out, leaves no pending-future litter, and the
  request reroutes;
* a failed diagnosis job is evicted so a re-report retries it;
* a result that cannot be delivered is counted, never silently lost;
* a full server restart mid-diagnosis is survived end to end;
* a draining stop gives up waves that no endpoint is left to answer.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.fleet import (
    DiagnosisJobQueue,
    FleetAgent,
    FleetServer,
    Hello,
)
from repro.fleet.server import AgentConn
from repro.fleet.wire import recv_frame_sock, send_frame_sock
from repro.ir import parse_module
from repro.obs import MetricsRegistry
from repro.runtime.protocol import TraceRequest

from tests.runtime.test_client_server import SRC, _workload

BUG = "custom-readbeforeinit"


@pytest.fixture(scope="module")
def custom_module():
    return parse_module(SRC)


def _server(custom_module, **kwargs):
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        metrics=MetricsRegistry(),
        **kwargs,
    )
    server.start()
    return server


def _raw_hello(server, agent_id):
    """A bare socket that joins the fleet and then does whatever the
    test says — including nothing at all (a hung endpoint)."""
    sock = socket.create_connection((server.host, server.port), timeout=5)
    send_frame_sock(sock, Hello(agent_id=agent_id, bug_id=BUG))
    return sock


def _conns(server):
    return server._agents.get(BUG, [])


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# -- duplicate Hello --------------------------------------------------------


def test_rehello_on_same_connection_supersedes(custom_module):
    server = _server(custom_module)
    try:
        sock = _raw_hello(server, "flappy")
        assert _wait_for(lambda: len(_conns(server)) == 1)
        send_frame_sock(sock, Hello(agent_id="flappy", bug_id=BUG))
        assert _wait_for(lambda: server.metrics.counter("agents_superseded") >= 1)
        # exactly one live connection for the agent id, never two
        assert len(_conns(server)) == 1
        assert _conns(server)[0].alive
        sock.close()
    finally:
        server.stop()


def test_reconnect_supersedes_stale_connection(custom_module):
    server = _server(custom_module)
    try:
        first = _raw_hello(server, "flappy")
        assert _wait_for(lambda: len(_conns(server)) == 1)
        stale = _conns(server)[0]
        # the agent's process restarts: a new connection, same identity
        second = _raw_hello(server, "flappy")
        assert _wait_for(lambda: server.metrics.counter("agents_superseded") >= 1)
        assert len(_conns(server)) == 1
        assert _conns(server)[0] is not stale
        assert not stale.alive
        assert stale.pending == {}  # superseding failed (and cleared) them
        first.close()
        second.close()
    finally:
        server.stop()


# -- hung endpoint ----------------------------------------------------------


def test_hung_endpoint_times_out_reroutes_and_leaks_nothing(custom_module):
    # one endpoint that joined and then went catatonic, one real agent;
    # the diagnosis must complete by rerouting around the hung one
    server = _server(custom_module, trace_reply_timeout=0.3)
    stop = threading.Event()
    hung = _raw_hello(server, "catatonic")
    try:
        assert _wait_for(lambda: len(_conns(server)) == 1)
        hung_conn = _conns(server)[0]
        agent = FleetAgent("live", BUG, custom_module, _workload,
                           server.host, server.port)
        agent.connect()
        result = agent.produce_and_report(stop)
        agent.close()
        assert result.digest["diagnosed"]
        # the hung endpoint was tried, timed out, and cleaned up after
        assert server.metrics.counter("trace_request_timeouts") >= 1
        assert hung_conn.pending == {}
    finally:
        stop.set()
        hung.close()
        server.stop()


def test_request_fails_cleanly_when_every_endpoint_hangs(custom_module):
    server = _server(
        custom_module, trace_reply_timeout=10.0, request_timeout=0.5
    )
    hung = _raw_hello(server, "catatonic")
    try:
        assert _wait_for(lambda: len(_conns(server)) == 1)
        hung_conn = _conns(server)[0]
        request = TraceRequest(label="probe", seed=1, breakpoint_uids=(2,))
        started = time.perf_counter()
        responses = server._remote_batch(BUG, [request])
        # the wave's wall-clock budget, not the per-endpoint reply
        # timeout, ended it — and the miss is positional, not an error
        assert time.perf_counter() - started < 5.0
        assert [r.outcome for r in responses] == ["unreachable"]
        assert responses[0].label == "probe" and responses[0].sample is None
        assert hung_conn.pending == {}  # the timeout cleaned up behind itself
        assert server.metrics.counter("trace_request_timeouts") >= 1
    finally:
        hung.close()
        server.stop()


def test_no_endpoint_at_all_fails_with_backoff_not_spin(custom_module):
    server = _server(custom_module, request_timeout=0.3)
    try:
        requests = [
            TraceRequest(label=f"probe-{i}", seed=i, breakpoint_uids=(2,))
            for i in range(3)
        ]
        started = time.perf_counter()
        responses = server._remote_batch("no-such-bug", requests)
        # bounded by the wall clock, and the loop slept between attempts
        # instead of spinning (a spin would still return fast — what we
        # pin here is that the budget, not an attempt count, ended it)
        assert time.perf_counter() - started < 5.0
        assert [r.outcome for r in responses] == ["unreachable"] * 3
        assert [r.label for r in responses] == [r.label for r in requests]
        assert server.metrics.counter("trace_requests_failed") == 3
    finally:
        server.stop()


def test_draining_stop_gives_up_a_wave_no_endpoint_can_answer(custom_module):
    # regression: stop() drains in-flight jobs after closing its
    # listener; a job still collecting for a bug whose endpoints had hung
    # up waited out request_timeout on every wave, although no endpoint
    # could reconnect to answer it
    server = _server(custom_module, request_timeout=120.0)
    request = TraceRequest(label="probe", seed=1, breakpoint_uids=(2,))
    future, _ = server.jobs.submit(
        "orphaned", lambda: server._remote_batch(BUG, [request])
    )
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 10.0
    assert [r.outcome for r in future.result(timeout=0)] == ["unreachable"]


# -- failed jobs retry ------------------------------------------------------


def test_failed_job_is_evicted_so_a_rereport_retries():
    metrics = MetricsRegistry()
    queue = DiagnosisJobQueue(workers=1, metrics=metrics)
    try:
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient outage mid-collection")
            return "diagnosed"

        future, dedup = queue.submit("sig", flaky)
        assert not dedup
        with pytest.raises(RuntimeError):
            future.result(timeout=5)
        # the failure was evicted: same signature runs again, fresh
        assert _wait_for(lambda: queue.result_for("sig") is None)
        future2, dedup2 = queue.submit("sig", flaky)
        assert not dedup2
        assert future2.result(timeout=5) == "diagnosed"
        assert metrics.counter("jobs_failed") == 1
        assert metrics.counter("jobs_completed") == 1
    finally:
        queue.shutdown()


# -- delivery accounting ----------------------------------------------------


def test_delivery_to_a_vanished_reporter_is_counted(custom_module):
    server = _server(custom_module)
    try:
        dead = AgentConn("ghost", BUG, writer=None, alive=False)
        asyncio.run_coroutine_threadsafe(
            server._deliver_one(dead, b"frame"), server._loop
        ).result(timeout=5)
        assert server.metrics.counter("result_delivery_failures") == 1
        assert server.metrics.counter("results_delivered") == 0
    finally:
        server.stop()


# -- server restart ---------------------------------------------------------


def test_diagnosis_survives_a_server_restart(custom_module):
    # more traces wanted -> a longer collection, so the restart provably
    # lands while the diagnosis is mid-flight, not after it finished
    server = _server(custom_module, success_traces_wanted=25)
    stop = threading.Event()
    restarted = threading.Event()

    def restart_mid_collection():
        if _wait_for(
            lambda: server.metrics.counter("trace_requests_sent") >= 3,
            timeout=30,
        ):
            server.restart()
            restarted.set()

    try:
        agent = FleetAgent("survivor", BUG, custom_module, _workload,
                           server.host, server.port)
        agent.connect()
        restarter = threading.Thread(target=restart_mid_collection, daemon=True)
        restarter.start()
        result = agent.produce_and_report(stop)
        restarter.join(timeout=10)
        agent.close()
        assert restarted.is_set()
        assert result.digest["diagnosed"]
        assert server.metrics.counter("server_restarts") == 1
        # the agent noticed and came back (reconnect or re-report)
        assert agent.reconnects + agent.failure_resends >= 1
    finally:
        stop.set()
        server.stop()
