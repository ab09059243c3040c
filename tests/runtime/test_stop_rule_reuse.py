"""The stable-top stop rule's evaluator reuses work across evaluations.

One ``LazyDiagnosis`` serves a whole collection: each
sample is processed once, and the ranking and per-sample patterns stand
while the executed scope does.  For every corpus bug at seed 0 that
must change nothing: a collection whose evaluator builds a fresh
pipeline per call — the evaluator before reuse — sees the same top
signature at every evaluation and collects the same evidence, and a
pipeline kept across every prefix of that evidence reports what a
fresh pipeline per prefix does.
"""

import copy

import pytest

from repro.core.cache import DiagnosisCaches
from repro.core.pipeline import LazyDiagnosis
from repro.corpus import all_bugs
from repro.errors import DiagnosisError
from repro.fleet.server import report_digest
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer
from repro.runtime import server as runtime_server

STABLE_TOP = CollectionPolicy(stopping="stable-top")


def _fresh_per_call(self, successes):
    pipeline = self._pipeline
    fresh = LazyDiagnosis(
        pipeline.module,
        pipeline.config,
        analysis_cache=pipeline.analysis_cache,
        trace_cache=pipeline.trace_cache,
        obs=None,
    )
    try:
        report = fresh.diagnose([self._failing], successes)
    except DiagnosisError:
        return None
    return None if report.root_cause is None else str(report.root_cause.signature)


def _collect(module, failing_sample, failing_uid, send, monkeypatch, evaluate):
    tops = []

    def recording(self, successes):
        top = evaluate(self, successes)
        tops.append((len(successes), top))
        return top

    monkeypatch.setattr(runtime_server._TopPatternEvaluator, "__call__", recording)
    server = SnorlaxServer(module, policy=STABLE_TOP, caches=DiagnosisCaches())
    session = server.run_session(failing_sample, failing_uid, 10_000, send=send)
    return tops, session


def _evidence(session):
    return session.attempts, [
        (s.label, s.buffers, s.positions) for s in session.successes
    ]


@pytest.mark.parametrize(
    "spec", all_bugs(), ids=lambda s: s.bug_id.replace("/", "_")
)
def test_reusing_evaluator_matches_a_fresh_pipeline_per_call(spec, monkeypatch):
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    failing = client.find_runs(True, 1, start_seed=0)[0]
    failing_sample = SnorlaxServer(module).sample_from_run("failure", failing)
    uid = failing.failure.failing_uid
    responses = {}

    def execute(request):
        key = (request.seed, tuple(request.breakpoint_uids), request.breakpoint_skip)
        if key not in responses:
            responses[key] = runtime_server.run_trace_request(client, request)
        # a copy: consume relabels the sample it keeps
        return copy.deepcopy(responses[key])

    reuse_tops, reuse = _collect(
        module, failing_sample, uid, execute, monkeypatch,
        runtime_server._TopPatternEvaluator.__call__,
    )
    fresh_tops, fresh = _collect(
        module, failing_sample, uid, execute, monkeypatch, _fresh_per_call
    )
    assert reuse_tops, "the stop rule evaluated nothing"
    assert reuse_tops == fresh_tops
    assert _evidence(reuse) == _evidence(fresh)
    # beyond the top signature: the whole report on every prefix
    kept = LazyDiagnosis(module)
    successes = list(reuse.successes)
    for k in range(1, len(successes) + 1):
        prefix = successes[:k]
        assert report_digest(kept.diagnose([failing_sample], prefix)) == (
            report_digest(LazyDiagnosis(module).diagnose([failing_sample], prefix))
        ), f"prefix of {k}"
