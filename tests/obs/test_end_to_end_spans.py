"""Observability threaded through a real diagnosis, and the repro.api
facade's equivalence with the legacy entry points."""

import random

import pytest

from repro import api
from repro.core.pipeline import LazyDiagnosis
from repro.errors import DiagnosisError
from repro.fleet import DiagnosisJobQueue
from repro.ir import parse_module
from repro.obs import NULL_TRACER, MetricsRegistry, Observability, Tracer
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer

FIVE = CollectionPolicy(success_traces_wanted=5)

SRC = """
module t
struct Cfg { limit: i64 }
global g_cfg: ptr<Cfg> = null

func handler(d_poll: i64, d_use: i64) -> void {
entry:
  delay %d_poll
  %p = load @g_cfg
  %ok = cmp ne 0, 1
  cbr %ok, use, use
use:
  delay %d_use
  %f = fieldaddr %p, limit
  %v = load %f          @ h.c:12
  ret
}

func main(d_init: i64, d_poll: i64, d_use: i64) -> void {
entry:
  %t = spawn @handler(%d_poll, %d_use)
  delay %d_init
  %c = malloc Cfg
  %f = fieldaddr %c, limit
  store 10, %f
  store %c, @g_cfg
  %ok = cmp ne 0, 1
  cbr %ok, fin, fin
fin:
  join %t
  ret
}
"""

STAGES = (
    "trace_processing",
    "points_to",
    "type_ranking",
    "pattern_computation",
    "statistical_diagnosis",
)


def _workload(seed):
    rng = random.Random(seed)
    q = 200_000
    d_init = 5 * q
    k = rng.choice([-2, -1, 1, 2])
    return (d_init, max(d_init + k * q, q), 4 * q)


@pytest.fixture(scope="module")
def module():
    return parse_module(SRC)


@pytest.fixture(scope="module")
def client(module):
    return SnorlaxClient(module, _workload)


@pytest.fixture(scope="module")
def failing(client):
    return client.find_runs(True, 1)[0]


@pytest.fixture(scope="module")
def traced_diagnosis(module, client, failing):
    obs = Observability()
    server = SnorlaxServer(module, policy=FIVE, obs=obs)
    result = server.diagnose(failing, client)
    return obs, result


def _children(spans, parent):
    return [s for s in spans if s.parent_id == parent.span_id]


def test_span_tree_covers_the_whole_job(traced_diagnosis):
    obs, result = traced_diagnosis
    spans = obs.tracer.finished_spans()
    job = next(s for s in spans if s.name == "diagnosis_job")
    assert job.parent_id is None
    top = [s.name for s in _children(spans, job)]
    assert top == ["collect_traces", "diagnose"]
    collect = next(s for s in spans if s.name == "collect_traces")
    requests = _children(spans, collect)
    assert len(requests) >= 5  # one round-trip per step-8 attempt
    assert all(s.name == "trace_request" for s in requests)
    assert all(
        s.attrs["outcome"] in ("ok", "failing", "miss") for s in requests
    )
    assert collect.attrs["collected"] == 5


def test_span_tree_has_all_five_stages_nested(traced_diagnosis):
    obs, _ = traced_diagnosis
    spans = obs.tracer.finished_spans()
    diagnose = next(s for s in spans if s.name == "diagnose")
    stage_names = [s.name for s in _children(spans, diagnose)]
    assert stage_names == list(STAGES)  # in pipeline order
    points_to = next(s for s in spans if s.name == "points_to")
    solve_children = {s.name for s in _children(spans, points_to)}
    assert "generate_constraints" in solve_children
    assert "solve" in solve_children
    assert diagnose.attrs["diagnosed"] is True


def test_stage_timers_land_in_the_unified_registry(traced_diagnosis):
    obs, _ = traced_diagnosis
    for stage in STAGES:
        assert obs.registry.timings(f"stage_{stage}"), stage
    # solver + cache-event counters share the same registry
    assert obs.registry.counter("solver_nodes") > 0


def test_result_bundles_the_pipeline_subtree(traced_diagnosis):
    obs, result = traced_diagnosis
    assert result.spans and result.spans[0].name == "diagnose"
    assert {s.name for s in result.spans} >= set(STAGES)
    assert set(result.stage_seconds) == set(STAGES)


def test_flight_recorder_embedded_in_the_report(traced_diagnosis):
    _, result = traced_diagnosis
    recorder = result.report.flight_recorder
    assert recorder is not None and recorder.startswith("--- flight recorder ---")
    # the server widened it to the whole job, collection included
    assert "diagnosis_job" in recorder and "collect_traces" in recorder
    for stage in STAGES:
        assert stage in recorder
    assert recorder in result.report.render()


def test_disabled_observability_records_nothing(module, client, failing):
    before = len(NULL_TRACER)
    server = SnorlaxServer(module, policy=CollectionPolicy(success_traces_wanted=3))
    result = server.diagnose(failing, client)
    assert len(NULL_TRACER) == before == 0
    assert result.spans == ()
    assert result.report.flight_recorder is None


def test_api_diagnose_matches_legacy_entry_points(module, client, failing):
    from repro.fleet.server import report_digest

    server = SnorlaxServer(module, policy=FIVE)
    failing_sample = server.sample_from_run("failure", failing)
    successes = server.collect_successful_traces(
        client, failing.failure.failing_uid, 10_000
    )
    via_api = api.diagnose(module, traces=[failing_sample, *successes])
    legacy = LazyDiagnosis(module).diagnose([failing_sample], successes)
    assert report_digest(via_api.report) == report_digest(legacy)
    assert via_api.diagnosed and via_api.root_cause is not None
    assert via_api.request.failing == (failing_sample,)
    assert len(via_api.request.successes) == len(successes)
    # and the server flow agrees end to end on the same failing run
    via_server = SnorlaxServer(module, policy=FIVE).diagnose(
        failing, client
    )
    assert report_digest(via_server.report) == report_digest(via_api.report)


def test_api_diagnose_requires_failing_evidence(module):
    with pytest.raises(DiagnosisError):
        api.diagnose(module, traces=[])


def test_diagnose_failure_shim_is_gone():
    # the report-only legacy shape was removed after one deprecation
    # cycle; api.diagnose / SnorlaxServer.diagnose are the only doors
    assert not hasattr(SnorlaxServer, "diagnose_failure")


def test_job_queue_emits_fleet_job_spans():
    tracer = Tracer()
    queue = DiagnosisJobQueue(
        workers=1, metrics=MetricsRegistry(), tracer=tracer
    )
    try:
        future, deduplicated = queue.submit("pbzip2|sig", lambda: 42)
        assert future.result(timeout=30) == 42
        assert not deduplicated
    finally:
        queue.shutdown()
    spans = tracer.finished_spans()
    job = next(s for s in spans if s.name == "fleet_job")
    wait = next(s for s in spans if s.name == "job_queue_wait")
    assert wait.parent_id == job.span_id
    assert job.attrs["signature"] == "pbzip2|sig"
