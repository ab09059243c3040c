"""End-to-end fleet runs over real localhost TCP sockets.

The acceptance story: ≥50 agents, ≥3 distinct corpus bugs failing
concurrently on several endpoints each, every signature diagnosed
exactly once (dedup), and each fleet-produced report equal to what the
in-process ``SnorlaxServer.diagnose`` yields for the same
module and seeds.
"""

import gc
import threading
import weakref

import pytest

from repro.corpus import bug
from repro.fleet import (
    FleetAgent,
    FleetConfig,
    FleetServer,
    report_digest,
    run_fleet,
)
from repro.ir import parse_module
from repro.obs import MetricsRegistry
from repro.runtime import SnorlaxClient, SnorlaxServer

from tests.runtime.test_client_server import SRC, _workload

BUGS = ("pbzip2-n/a", "memcached-271", "aget-2")


# -- small custom-module fleet (module_resolver injection) ------------------


@pytest.fixture(scope="module")
def custom_module():
    return parse_module(SRC)


def test_single_agent_fleet_matches_in_process(custom_module):
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module, workers=1, max_pending=2
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
    client = SnorlaxClient(custom_module, _workload)
    failing = client.find_runs(True, 1)[0]
    in_process = SnorlaxServer(custom_module).diagnose(failing, client).report
    assert result.signature == "custom-readbeforeinit|crash|" + str(
        failing.failure.failing_uid
    )
    assert result.digest == report_digest(in_process)
    assert result.digest["bug_kind"] == "order-violation"
    assert result.digest["f1"] == 1.0


def test_stopped_server_is_freed_without_the_cycle_collector(custom_module):
    # a stopped server and its decoded-trace cache must go as soon as the
    # last outside reference does: no reference cycle may lead back to
    # it (job-queue listeners, cached futures' done-callbacks, the
    # listener's protocol factory), or it lives until a full collection
    gc.collect()
    gc.disable()
    try:
        server = FleetServer(
            module_resolver=lambda bug_id: custom_module, workers=1, max_pending=2
        )
        host, port = server.start()
        stop = threading.Event()
        try:
            agent = FleetAgent(
                "solo", "custom-readbeforeinit", custom_module, _workload, host, port
            )
            agent.connect()
            agent.produce_and_report(stop)
            agent.close()
        finally:
            stop.set()
            server.stop()
        # still readable after stop, as the benchmark reads it
        assert server.metrics.as_dict()["counters"]["diagnoses_completed"] == 1
        assert server.caches.traces.stats.misses > 0
        refs = [weakref.ref(server), weakref.ref(server.caches.traces)]
        del server, agent
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- the 50-agent corpus fleet ---------------------------------------------


@pytest.fixture(scope="module")
def fleet_caches():
    from repro.core.cache import DiagnosisCaches

    return DiagnosisCaches()


@pytest.fixture(scope="module")
def fleet_run(fleet_caches):
    metrics = MetricsRegistry()
    config = FleetConfig(
        agents=50, bug_ids=BUGS, reporters_per_bug=3, workers=3, max_pending=8
    )
    result = run_fleet(config, metrics=metrics, caches=fleet_caches)
    return result


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


def test_fleet_runs_clean(fleet_run):
    errors = [o for o in fleet_run.outcomes if o.error]
    assert not errors, errors
    assert len(fleet_run.outcomes) == 50


def test_each_signature_diagnosed_exactly_once(fleet_run):
    # 3 reporters x 3 bugs = 9 failures, but only 3 diagnoses ran: the
    # other 6 reports were folded in by signature dedup.
    assert fleet_run.failures_received == 9
    assert fleet_run.diagnoses_completed == 3
    assert fleet_run.dedup_hits == 6
    assert len(fleet_run.digests) == 3


def test_all_reporters_of_a_bug_get_the_same_result(fleet_run):
    by_signature = {}
    for outcome in fleet_run.outcomes:
        if outcome.reporter:
            assert outcome.digest is not None
            by_signature.setdefault(outcome.signature, []).append(outcome.digest)
    assert len(by_signature) == 3
    for signature, digests in by_signature.items():
        assert len(digests) == 3
        assert all(d == digests[0] for d in digests), signature


def test_fleet_reports_equal_in_process_reports(fleet_run, in_process_digests):
    assert set(fleet_run.digests) == set(in_process_digests)
    for signature, digest in fleet_run.digests.items():
        assert digest == in_process_digests[signature], signature
        assert digest["diagnosed"]
        assert digest["f1"] == 1.0


def test_collection_fans_out_across_endpoints(fleet_run):
    # successful traces were gathered from many endpoints, not just the
    # reporting ones
    servers = [o for o in fleet_run.outcomes if o.trace_requests_served]
    assert len(servers) > 3
    total_served = sum(o.trace_requests_served for o in fleet_run.outcomes)
    assert total_served == fleet_run.metrics["counters"]["trace_requests_sent"]
    assert total_served == fleet_run.metrics["counters"]["trace_responses_received"]


def test_metrics_observed(fleet_run):
    counters = fleet_run.metrics["counters"]
    assert counters["agents_connected"] == 50
    assert counters["traces_collected"] == 30  # 10 successes x 3 diagnoses
    assert counters["jobs_submitted"] == 3
    timers = fleet_run.metrics["timers"]
    assert timers["diagnosis_latency"]["count"] == 3
    assert timers["collection_latency"]["count"] == 3
    assert timers["analysis_latency"]["count"] == 3
    assert 0 < fleet_run.median_diagnosis_latency_s < 60
    assert fleet_run.metrics["gauges"]["queue_depth"] == 0
    assert fleet_run.failures_per_sec > 0


def test_recurring_failures_reuse_collected_evidence(fleet_run, fleet_caches):
    # the production steady state: the same bugs fail again tomorrow.
    # With warm caches the fleet replays the memoized evidence — zero
    # remote executions — and still produces byte-identical digests.
    config = FleetConfig(
        agents=12, bug_ids=BUGS, reporters_per_bug=1, workers=3
    )
    again = run_fleet(config, metrics=MetricsRegistry(), caches=fleet_caches)
    assert again.digests == fleet_run.digests
    counters = again.metrics["counters"]
    assert counters.get("evidence_cache_hits", 0) == len(BUGS)
    assert counters.get("trace_requests_sent", 0) == 0
    assert counters.get("trace_batches_sent", 0) == 0
