"""Chaos acceptance: the fleet diagnoses correctly through injected
faults, and degrades gracefully (flagged, never wrong) when evidence is
scarce.

The tentpole property: trace collection is deterministic in
(seed, breakpoints, skip), so a fleet run under frame corruption,
dropped responses, and agent crashes must still produce digests
byte-identical to the fault-free in-process diagnosis.
"""

import threading

import pytest

from repro.corpus import bug
from repro.fleet import (
    FaultPlan,
    FleetAgent,
    FleetConfig,
    FleetServer,
    report_digest,
    run_fleet,
)
from repro.ir import parse_module
from repro.obs import MetricsRegistry
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer

from tests.runtime.test_client_server import SRC, _workload

BUGS = ("pbzip2-n/a", "aget-2")


# -- FaultPlan determinism --------------------------------------------------


class _SinkSocket:
    """Collects whatever the fault engine lets through."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def sendall(self, data):
        self.sent.append(bytes(data))

    def close(self):
        self.closed = True


def _drive(engine, frames):
    """Feed frames through an engine; returns (survived bytes, counts)."""
    sink = _SinkSocket()
    for frame in frames:
        try:
            engine.send_frame(sink, frame)
        except ConnectionError:
            sink = _SinkSocket()  # reconnect: a fresh socket, same engine
    return sink.sent, dict(engine.counts)


def test_fault_stream_is_deterministic_per_endpoint():
    from repro.fleet.wire import TraceBatchResponse, encode_frame
    from repro.runtime.protocol import TraceResponse

    plan = FaultPlan(
        seed=42, corrupt_rate=0.3, drop_rate=0.2, truncate_rate=0.1,
        crash_rate=0.2, max_crashes_per_agent=2,
    )
    frames = [
        encode_frame(
            TraceBatchResponse(
                responses=(TraceResponse(label=f"s-{i}", outcome="success"),)
            ),
            i,
        )
        for i in range(50)
    ]
    sent_a, counts_a = _drive(plan.engine("agent-007"), frames)
    sent_b, counts_b = _drive(plan.engine("agent-007"), frames)
    assert sent_a == sent_b  # identical mangling, byte for byte
    assert counts_a == counts_b
    assert sum(counts_a.values()) > 0  # the plan actually did something
    # a different endpoint gets a different (but equally deterministic) stream
    sent_c, _ = _drive(plan.engine("agent-008"), frames)
    assert sent_c != sent_a


def test_inactive_plan_wraps_nothing():
    assert not FaultPlan().active
    assert not FaultPlan().wraps_sockets
    assert FaultPlan(server_restart_after_s=1.0).active
    assert not FaultPlan(server_restart_after_s=1.0).wraps_sockets
    assert FaultPlan(corrupt_rate=0.1).wraps_sockets


# -- the chaos fleet: ≥20 agents, corruption + drops + crashes --------------


@pytest.fixture(scope="module")
def chaos_run():
    plan = FaultPlan(
        seed=7,
        corrupt_rate=0.05,
        drop_rate=0.05,
        truncate_rate=0.02,
        crash_rate=0.9,  # nearly every endpoint dies on its first answer
        max_crashes_per_agent=1,
    )
    config = FleetConfig(
        agents=20,
        bug_ids=BUGS,
        reporters_per_bug=2,
        workers=2,
        chaos=plan,
        trace_reply_timeout=2.0,
        frame_timeout=5.0,
    )
    return run_fleet(config, metrics=MetricsRegistry())


@pytest.fixture(scope="module")
def in_process_digests():
    digests = {}
    for bug_id in BUGS:
        spec = bug(bug_id)
        client = SnorlaxClient(spec.module(), spec.workload, entry=spec.entry)
        failing = client.find_runs(True, 1)[0]
        report = SnorlaxServer(spec.module()).diagnose(failing, client).report
        signature = f"{bug_id}|{failing.failure.kind}|{failing.failure.failing_uid}"
        digests[signature] = report_digest(report)
    return digests


def test_chaos_fleet_completes_every_diagnosis(chaos_run):
    errors = [o for o in chaos_run.outcomes if o.error]
    assert not errors, errors
    for outcome in chaos_run.outcomes:
        if outcome.reporter:
            assert outcome.digest is not None, outcome.agent_id
    assert len(chaos_run.digests) == len(BUGS)


def test_chaos_faults_actually_landed(chaos_run):
    crashed = [
        o for o in chaos_run.outcomes if o.faults_injected.get("crashes")
    ]
    assert len(crashed) >= 5  # >= 25% of the 20-agent fleet died mid-answer
    assert chaos_run.faults_injected > 0
    counters = chaos_run.metrics["counters"]
    # the injected damage surfaced through the resilience machinery,
    # not as agent errors
    recovered = (
        counters.get("trace_request_timeouts", 0)
        + counters.get("trace_request_reroutes", 0)
        + chaos_run.reconnects
    )
    assert recovered > 0


def test_chaos_digests_equal_fault_free_in_process(chaos_run, in_process_digests):
    # the acceptance bar: every non-degraded report is byte-identical to
    # the diagnosis a fault-free in-process server produces
    assert set(chaos_run.digests) == set(in_process_digests)
    for signature, digest in chaos_run.digests.items():
        assert not digest["degraded"], signature
        assert digest == in_process_digests[signature], signature
        assert digest["f1"] == 1.0


def test_chaos_fleet_used_batched_collection(chaos_run):
    # the chaos fixture runs with the batched default, so the digest
    # equality above is evidence equivalence *through batch frames*
    # under corruption, drops, and crashes — not just the unit path
    counters = chaos_run.metrics["counters"]
    assert counters.get("trace_batches_sent", 0) > 0
    assert counters.get("trace_requests_sent", 0) >= counters["trace_batches_sent"]


def test_batched_collection_survives_drop_and_delay(in_process_digests):
    # drop/delay aimed at batch frames: a swallowed TraceBatchResponse
    # re-stripes the whole chunk, and the evidence must still come out
    # byte-identical to the fault-free in-process diagnosis
    plan = FaultPlan(
        seed=11,
        drop_rate=0.08,
        delay_rate=0.15,
        max_delay_s=0.02,
    )
    config = FleetConfig(
        agents=10,
        bug_ids=("pbzip2-n/a",),
        reporters_per_bug=1,
        workers=2,
        chaos=plan,
        trace_reply_timeout=2.0,
        frame_timeout=5.0,
    )
    result = run_fleet(config, metrics=MetricsRegistry())
    assert not [o for o in result.outcomes if o.error]
    counters = result.metrics["counters"]
    assert counters.get("trace_batches_sent", 0) > 0
    for signature, digest in result.digests.items():
        assert not digest["degraded"], signature
        assert digest == in_process_digests[signature], signature


# -- validation under chaos -------------------------------------------------


def test_sharded_chaos_fleet_validation_matches_in_process():
    # the close-the-loop acceptance bar: a 2-shard fleet validating
    # through the standard chaos plan must stamp every report
    # `validated` with witness schedules byte-identical to a fault-free
    # in-process validation — the directed replays are deterministic in
    # (module, seed, directive, quantum), transport included
    from repro.validate import validate_report

    plan = FaultPlan(
        seed=7,
        corrupt_rate=0.05,
        drop_rate=0.05,
        truncate_rate=0.02,
        crash_rate=0.9,
        max_crashes_per_agent=1,
    )
    config = FleetConfig(
        agents=12,
        bug_ids=BUGS,
        reporters_per_bug=2,
        workers=2,
        shards=2,
        validate=True,
        chaos=plan,
        trace_reply_timeout=2.0,
        frame_timeout=5.0,
    )
    metrics = MetricsRegistry()
    result = run_fleet(config, metrics=metrics)
    assert not [o for o in result.outcomes if o.error]
    assert len(result.digests) == len(BUGS)

    expected = {}
    for bug_id in BUGS:
        spec = bug(bug_id)
        module = spec.module()
        client = SnorlaxClient(module, spec.workload, entry=spec.entry)
        failing = client.find_runs(True, 1)[0]
        report = SnorlaxServer(module).diagnose(failing, client).report
        validate_report(
            module, spec.workload, report,
            entry=spec.entry, failing_seed=failing.seed,
        )
        signature = (
            f"{bug_id}|{failing.failure.kind}|{failing.failure.failing_uid}"
        )
        expected[signature] = report_digest(report)

    assert set(result.digests) == set(expected)
    for signature, digest in result.digests.items():
        assert digest["validation"]["status"] == "validated", signature
        assert digest == expected[signature], signature


# -- graceful degradation ---------------------------------------------------


@pytest.fixture(scope="module")
def custom_module():
    return parse_module(SRC)


def test_degraded_collection_is_flagged_not_failed(custom_module):
    # one endpoint, 25 traces wanted, a deadline far too short: the
    # diagnosis must run with what arrived and say so
    metrics = MetricsRegistry()
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        success_traces_wanted=25,
        collection_deadline_s=0.05,
        min_success_traces=1,
        metrics=metrics,
    )
    host, port = server.start()
    stop = threading.Event()
    try:
        agent = FleetAgent(
            "solo", "custom-readbeforeinit", custom_module, _workload, host, port
        )
        agent.connect()
        result = agent.produce_and_report(stop)
        agent.close()
    finally:
        stop.set()
        server.stop()
    assert result.digest["degraded"] is True
    assert metrics.counter("degraded_collections") == 1
    assert any("degraded collection" in n for n in result.digest["notes"])
    # degraded evidence still yields a diagnosis, just from fewer traces
    assert result.digest["diagnosed"]


def _fleet_digest(custom_module, **server_kwargs) -> dict:
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        metrics=MetricsRegistry(),
        **server_kwargs,
    )
    host, port = server.start()
    stop = threading.Event()
    try:
        agent = FleetAgent(
            "solo", "custom-readbeforeinit", custom_module, _workload, host, port
        )
        agent.connect()
        result = agent.produce_and_report(stop)
        agent.close()
    finally:
        stop.set()
        server.stop()
    return result.digest


def test_in_process_degraded_collection_is_stamped_like_the_fleet(
    custom_module,
):
    # regression: in-process diagnosis with a collection deadline never
    # marked the report degraded, so its digest differed from the
    # fleet's for the same evidence cut short by the deadline
    client = SnorlaxClient(custom_module, _workload)
    failing = client.find_runs(True, 1)[0]
    policy = CollectionPolicy(
        success_traces_wanted=25, deadline_s=0, min_success_traces=1
    )
    report = SnorlaxServer(custom_module, policy=policy).diagnose(
        failing, client
    ).report
    assert report.degraded
    digest = report_digest(report)
    assert digest["degraded"] is True
    # a deadline of 0 stops at the minimum evidence: one trace
    assert "degraded collection: diagnosed from 1/25 successful traces" in (
        digest["notes"]
    )
    fleet = _fleet_digest(
        custom_module,
        success_traces_wanted=25,
        collection_deadline_s=0,
        min_success_traces=1,
    )
    assert fleet["degraded"] is True
    assert set(fleet) == set(digest)
    (fleet_note,) = [n for n in fleet["notes"] if "degraded" in n]
    assert fleet_note.startswith("degraded collection: diagnosed from ")
    assert fleet_note.endswith("/25 successful traces")


def test_fault_free_fleet_digest_is_not_degraded(custom_module):
    metrics = MetricsRegistry()
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module, workers=1, metrics=metrics
    )
    host, port = server.start()
    stop = threading.Event()
    try:
        agent = FleetAgent(
            "solo", "custom-readbeforeinit", custom_module, _workload, host, port
        )
        agent.connect()
        result = agent.produce_and_report(stop)
        agent.close()
    finally:
        stop.set()
        server.stop()
    assert result.digest["degraded"] is False
    assert metrics.counter("degraded_collections") == 0
