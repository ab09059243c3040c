"""Client/server runtime: failure detection, trace collection policy,
predecessor fallback, protocol messages."""

import random

import pytest

from repro.ir import parse_module
from repro.runtime import (
    CollectionPolicy,
    SnorlaxClient,
    SnorlaxServer,
    TraceRequest,
    classify,
)

FOUR = CollectionPolicy(success_traces_wanted=4)

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


def test_find_runs_splits_by_outcome(client):
    fails = client.find_runs(True, 3, start_seed=0)
    oks = client.find_runs(False, 3, start_seed=0)
    assert len(fails) == 3 and all(r.failed for r in fails)
    assert len(oks) == 3 and all(not r.failed for r in oks)


def test_failure_snapshot_taken_automatically(client):
    run = client.find_runs(True, 1)[0]
    assert run.snapshot is not None
    assert run.snapshot.reason == "failure"
    assert run.failure.kind == "crash"


def test_classify_success_is_none(client):
    run = client.find_runs(False, 1)[0]
    assert classify(run.result) is None


def test_untraced_run_matches_outcome(client):
    run = client.find_runs(True, 1, start_seed=0)
    base = client.run_untraced(run[0].seed)
    assert base.outcome == run[0].result.outcome


def test_server_collects_successful_traces(module, client):
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module, policy=CollectionPolicy(success_traces_wanted=5))
    samples = server.collect_successful_traces(
        client, failing.failure.failing_uid, 5_000
    )
    assert len(samples) == 5
    assert all(not s.failing for s in samples)
    assert all(s.buffers for s in samples)
    assert server.stats.success_traces == 5


def test_server_end_to_end_diagnosis(module, client):
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module)
    report = server.diagnose(failing, client).report
    assert report.diagnosed
    read_uid = next(
        i.uid for i in module.instructions() if i.loc and i.loc.line == 12
    )
    # read-before-init: the stale pointer read precedes the publication
    diag = report.ordered_target_uids()
    assert report.bug_kind == "order-violation"
    assert report.root_cause.f1 == 1.0


def test_handle_trace_request_protocol(module, client):
    server = SnorlaxServer(module)
    failing = client.find_runs(True, 1)[0]
    req = TraceRequest(label="probe", seed=failing.seed, breakpoint_uids=())
    resp = server.handle_trace_request(client, req)
    assert resp.label == "probe"
    assert resp.outcome in ("crash", "success", "assert")
    if resp.sample is not None:
        assert resp.sample.buffers


def test_handle_trace_request_counts_executions(module, client):
    # Regression: the message-level API used to bypass the stats counter,
    # so a server driven over the protocol under-reported executions.
    server = SnorlaxServer(module)
    req = TraceRequest(label="probe", seed=123)
    server.handle_trace_request(client, req)
    server.handle_trace_request(client, req)
    assert server.stats.executions_requested == 2


def test_handle_trace_request_honors_breakpoint_skip(module, client):
    # Regression: breakpoint_skip was dropped on the protocol path, so
    # message-driven collection could not vary execution maturity the way
    # collect_successful_traces does.
    server = SnorlaxServer(module)
    ok = client.find_runs(False, 1)[0]
    uid = next(i.uid for i in module.instructions() if i.loc and i.loc.line == 12)
    base = server.handle_trace_request(
        client, TraceRequest(label="s0", seed=ok.seed, breakpoint_uids=(uid,))
    )
    assert base.sample is not None
    # An absurdly large skip means the breakpoint never fires, so a
    # successful run produces no snapshot at all.
    skipped = server.handle_trace_request(
        client,
        TraceRequest(
            label="s1", seed=ok.seed, breakpoint_uids=(uid,), breakpoint_skip=10_000
        ),
    )
    assert skipped.outcome == "success"
    assert skipped.sample is None


def test_window_one_over_a_batch_transport_gathers_identical_evidence(
    module, client
):
    # The wave size must be invisible in the evidence: a batch transport
    # driven one request at a time (window 1) and the same transport at
    # its derived window gather the same samples, labels and bytes —
    # only the number of *issued* requests may differ.
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    collected = {}
    for window in ("one", "derived"):
        server = SnorlaxServer(module, policy=FOUR)

        def send_batch(requests, s=server):
            return [s.handle_trace_request(client, r) for r in requests]

        if window == "one":
            samples = server.collect_traces_via(
                lambda req: send_batch([req])[0], uid, 5_000
            )
        else:
            samples = server.collect_traces_via(
                None, uid, 5_000, send_batch=send_batch
            )
        collected[window] = (server, samples)
    (one, base), (derived, spec) = collected["one"], collected["derived"]
    assert [s.label for s in base] == [s.label for s in spec]
    assert [s.buffers for s in base] == [s.buffers for s in spec]
    assert [s.positions for s in base] == [s.positions for s in spec]
    assert one.stats.success_traces == derived.stats.success_traces
    # window 1 issues no speculative executions; the derived window does
    assert one.stats.executions_requested <= derived.stats.executions_requested


def test_batched_collection_gathers_identical_evidence(module, client):
    # The batched transport (whole speculative waves in one frame) must
    # be invisible in the evidence.
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    serial = SnorlaxServer(module, policy=FOUR)
    base = serial.collect_successful_traces(client, uid, 5_000)
    batched = SnorlaxServer(module, policy=FOUR)

    def send_batch(requests):
        return [batched.handle_trace_request(client, r) for r in requests]

    spec = batched.collect_traces_via(
        lambda req: batched.handle_trace_request(client, req),
        uid,
        5_000,
        send_batch=send_batch,
    )
    assert [s.label for s in base] == [s.label for s in spec]
    assert [s.buffers for s in base] == [s.buffers for s in spec]
    assert [s.positions for s in base] == [s.positions for s in spec]
    assert batched.stats.success_traces == serial.stats.success_traces


def test_adaptive_stopping_is_transport_invariant(module, client):
    # stable-top stopping is a pure function of the sample prefix: the
    # serial and batched transports must stop at the same sample
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    collected = {}
    policy = CollectionPolicy(
        success_traces_wanted=10, stopping="stable-top", adaptive_min_traces=3
    )
    for label, batch in (("serial", False), ("batched", True)):
        server = SnorlaxServer(module, policy=policy)
        failing_sample = server.sample_from_run("failure", failing)

        def send_batch(requests, s=server):
            return [s.handle_trace_request(client, r) for r in requests]

        session = server.run_session(
            failing_sample,
            uid,
            5_000,
            send=lambda req, s=server: s.handle_trace_request(client, req),
            send_batch=send_batch if batch else None,
        )
        assert not session.degraded  # stopped because the evidence sufficed
        collected[label] = session.successes
    serial, batched = collected["serial"], collected["batched"]
    assert [s.label for s in serial] == [s.label for s in batched]
    assert [s.buffers for s in serial] == [s.buffers for s in batched]
    # adaptive stopping actually stopped early — fewer than the fixed cap
    assert len(serial) < 10


def test_server_caches_shared_across_diagnoses(module, client):
    from repro.core.cache import DiagnosisCaches

    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module, caches=DiagnosisCaches())
    first_result = server.diagnose(failing, client)
    first = first_result.report
    cold = first_result.cache_events
    assert cold["analysis_cache_misses"] == 1
    # streaming decode warms the trace cache while collection is still
    # in flight, so even the cold pipeline run sees only hits
    assert cold["trace_cache_misses"] == 0
    assert cold["trace_cache_hits"] > 0
    second_result = server.diagnose(failing, client)
    second = second_result.report
    warm = second_result.cache_events
    # identical evidence: points-to and every decode come from cache
    assert warm["analysis_cache_hits"] == 1
    assert warm["trace_cache_misses"] == 0
    assert warm["trace_cache_hits"] == cold["trace_cache_hits"]
    assert first.root_cause.signature == second.root_cause.signature


def test_collection_identical_via_message_api(module, client):
    # The two collection paths must gather identical evidence: the
    # in-process convenience wrapper is now defined as collect_traces_via
    # over handle_trace_request.
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    a = SnorlaxServer(module, policy=FOUR)
    direct = a.collect_successful_traces(client, uid, 5_000)
    b = SnorlaxServer(module, policy=FOUR)
    via = b.collect_traces_via(
        lambda req: b.handle_trace_request(client, req), uid, 5_000
    )
    assert [s.label for s in direct] == [s.label for s in via]
    assert [s.buffers for s in direct] == [s.buffers for s in via]
    assert a.stats == b.stats
    assert a.stats.executions_requested > 0
    server = SnorlaxServer(module)
    read_uid = next(
        i.uid for i in module.instructions() if i.loc and i.loc.line == 12
    )
    widened = server._widen_breakpoints(read_uid)
    assert widened[0] == read_uid
    assert len(widened) > 1  # plus predecessor block anchors


def _run_observed(module, client, policy, send_wrapper=None, caches=True):
    from repro.core.cache import DiagnosisCaches
    from repro.obs import Observability

    failing = client.find_runs(True, 1)[0]
    obs = Observability()
    server = SnorlaxServer(
        module,
        policy=policy,
        caches=DiagnosisCaches() if caches else None,
        obs=obs,
    )

    def send(req):
        resp = server.handle_trace_request(client, req)
        return send_wrapper(resp) if send_wrapper else resp

    session = server.run_session(
        server.sample_from_run("failure", failing),
        failing.failure.failing_uid,
        5_000,
        send=send,
    )
    return session, obs


def test_stop_rule_decodes_inline_and_still_observes_decode(
    module, client, monkeypatch
):
    from repro.runtime import server as runtime_server

    def no_pool(*args, **kwargs):
        raise AssertionError("a stop rule must not start the decode pool")

    monkeypatch.setattr(runtime_server, "_StreamingDecoder", no_pool)
    policy = CollectionPolicy(stopping="stable-top", adaptive_min_traces=3)
    session, obs = _run_observed(module, client, policy)
    decode = obs.registry.as_dict()["timers"]["stage_decode"]
    # one value per sample, as the pool records: the failing sample and
    # each collected one, timed when an evaluation first reads it
    assert decode["count"] == 1 + len(session.successes)
    # every sample was decoded inline, so the final diagnosis only hits
    assert session.result.cache_events["trace_cache_misses"] == 0


def test_stop_rule_without_caches_observes_no_decode(module, client):
    policy = CollectionPolicy(stopping="stable-top", adaptive_min_traces=3)
    _session, obs = _run_observed(module, client, policy, caches=False)
    # no pool would have run, so there is no decode stage to report
    assert "stage_decode" not in obs.registry.as_dict().get("timers", {})


def test_fixed_stopping_keeps_the_decode_pool(module, client):
    session, obs = _run_observed(module, client, FOUR)
    decode = obs.registry.as_dict()["timers"]["stage_decode"]
    # the pool decodes the failing sample and every collected one
    assert decode["count"] == 1 + len(session.successes)


def test_trace_request_spans_label_a_sampleless_capture_failing(module, client):
    sent = []

    def shipped(resp):
        sent.append(resp.shipped())  # as an agent sends it
        return sent[-1]

    _session, obs = _run_observed(module, client, FOUR, shipped)
    outcomes = [
        s.attrs["outcome"]
        for s in obs.tracer.finished_spans()
        if s.name == "trace_request"
    ]
    # a failing run's capture arrives without its sample, yet is no miss
    want = [
        "ok" if r.sample is not None else "failing" if r.captured else "miss"
        for r in sent
    ]
    assert outcomes == want
    assert "failing" in outcomes and "ok" in outcomes
