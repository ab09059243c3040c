"""The rebindable codec and write-through adapters, end to end.

IR values compare by identity, so a pickled fixpoint is useless against
the live module — the codec must *rebind* stored points-to sets onto
the module a fresh process parsed.  These tests drive the real
pipeline through store-backed caches and assert the part that matters:
a second process (simulated by fresh adapter LRUs over a reopened
store) reproduces the baseline digest without re-solving or
re-decoding anything.
"""

import pytest

from repro import api
from repro.core.cache import AnalysisCache
from repro.core.points_to import PointsToAnalysis
from repro.fleet.server import report_digest
from repro.ir import parse_module
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer
from repro.store import (
    DiagnosisStore,
    decode_analysis,
    encode_analysis,
    persistent_caches,
)

from tests.runtime.test_client_server import SRC, _workload


@pytest.fixture(scope="module")
def evidence():
    module = parse_module(SRC)
    client = SnorlaxClient(module, _workload)
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module, policy=CollectionPolicy(success_traces_wanted=4))
    failing_sample = server.sample_from_run("failure", failing)
    successes = server.collect_successful_traces(
        client, failing.failure.failing_uid, start_seed=10_000
    )
    return module, [failing_sample, *successes]


def test_fixpoint_rebinds_onto_a_live_module(evidence):
    module, samples = evidence
    # solve once, encode, then rebind and compare query-for-query
    solved = PointsToAnalysis(module, executed_uids=None).run()
    blob = encode_analysis(solved.system, solved.result)
    assert blob is not None
    decoded = decode_analysis(blob, module, None, "andersen")
    assert decoded is not None
    for value in decoded.system.addr_of:
        assert decoded.result.points_to(value) == solved.result.points_to(value)


def test_naive_pickle_would_answer_empty_but_codec_does_not(evidence):
    # the failure mode the codec exists for: non-empty fixpoint, queried
    # with live values, must not silently come back empty
    module, _ = evidence
    solved = PointsToAnalysis(module, executed_uids=None).run()
    live_queries = [v for v in solved.system.addr_of]
    assert live_queries
    blob = encode_analysis(solved.system, solved.result)
    decoded = decode_analysis(blob, module, None, "andersen")
    assert any(decoded.result.points_to(v) for v in live_queries)


def test_corrupt_or_alien_payloads_decode_as_miss(evidence):
    module, _ = evidence
    assert decode_analysis(b"not a pickle", module, None, "andersen") is None
    assert decode_analysis(b"", module, None, "andersen") is None


def test_trace_from_an_older_codec_decodes_as_miss():
    import pickle

    from repro.pt.decoder import ThreadTrace
    from repro.store.codec import CODEC_VERSION, decode_trace, encode_trace

    trace = ThreadTrace(1)
    trace.timing.add_run(4096, 3, 4096)
    assert decode_trace(encode_trace(trace)) == trace
    stale = pickle.dumps({"codec": CODEC_VERSION - 1, "trace": trace})
    assert decode_trace(stale) is None


def test_run_record_trace_round_trips_exactly():
    import pickle

    from repro.pt.decoder import ThreadTrace
    from repro.store.codec import CODEC_VERSION, decode_trace, encode_trace

    walk = (7, 8, 9)  # one walk-table tuple shared by two runs
    trace = ThreadTrace(
        2,
        runs=[(walk, 0, 4096, 0), (walk, 4096, 8192, 3), (walk[:1], 8192, 8192, 6)],
        executed_uids={7, 8, 9},
        end_time=8192,
        stop_uid=8,
    )
    trace.timing.add_run(4096, 2, 4096)
    loaded = decode_trace(encode_trace(trace))
    assert loaded == trace
    assert loaded.instructions == trace.instructions
    assert loaded.runs[0][0] is loaded.runs[1][0]  # sharing survives
    assert CODEC_VERSION == 4
    v3 = pickle.dumps({"codec": 3, "trace": trace})
    assert decode_trace(v3) is None


def test_trace_with_dataclass_instructions_decodes_as_miss(monkeypatch):
    # codec 2 pickled each DynamicInstruction as a frozen dataclass; the
    # named tuple that replaced it cannot be rebuilt from that state
    import dataclasses
    import pickle

    from repro.pt import decoder
    from repro.pt.decoder import ThreadTrace
    from repro.store.codec import CODEC_VERSION, decode_trace

    @dataclasses.dataclass(frozen=True)
    class DynamicInstruction:
        uid: int
        tid: int
        seq: int
        t_lo: int
        t_hi: int

    DynamicInstruction.__module__ = decoder.__name__
    DynamicInstruction.__qualname__ = "DynamicInstruction"
    # the layout before run records kept per-instruction values
    trace = ThreadTrace(1, runs=[((5,), 100, 200, 0)])
    vars(trace)["instructions"] = [DynamicInstruction(5, 1, 0, 100, 200)]
    with monkeypatch.context() as patch:
        patch.setattr(decoder, "DynamicInstruction", DynamicInstruction)
        blobs = [
            pickle.dumps({"codec": codec, "trace": trace})
            for codec in (CODEC_VERSION - 1, CODEC_VERSION)
        ]
    # stamped as the old codec, or even as the current one: a miss
    for blob in blobs:
        assert decode_trace(blob) is None


def test_non_andersen_results_are_not_persisted(evidence):
    module, _ = evidence
    steensgaard = PointsToAnalysis(module, algorithm="steensgaard").run()
    assert encode_analysis(steensgaard.system, steensgaard.result) is None


def test_store_backed_diagnosis_matches_baseline_across_handles(
    evidence, tmp_path
):
    module, samples = evidence
    baseline = report_digest(api.diagnose(module, traces=samples).report)
    path = str(tmp_path / "codec.db")

    with DiagnosisStore(path) as db:
        first = api.diagnose(module, traces=samples, caches=persistent_caches(db))
        assert report_digest(first.report) == baseline
        assert db.analysis_stats.writes >= 1
        assert db.trace_stats.writes >= 1

    # a fresh handle + fresh LRUs: everything must hydrate from disk
    with DiagnosisStore(path) as db:
        second = api.diagnose(module, traces=samples, caches=persistent_caches(db))
        assert report_digest(second.report) == baseline
        assert db.analysis_stats.hits >= 1
        assert db.trace_stats.hits >= 1
        assert db.analysis_stats.writes == 0  # nothing re-solved
        assert db.trace_stats.writes == 0  # nothing re-decoded


def test_plain_cache_protocol_still_works(evidence):
    # PointsToAnalysis falls back to key-only get() for caches without
    # the get_for_module hook — the pre-store protocol must not regress
    module, _ = evidence
    cache = AnalysisCache()
    assert not hasattr(cache, "get_for_module")
    first = PointsToAnalysis(module, cache=cache).run()
    again = PointsToAnalysis(module, cache=cache).run()
    assert again.stats.extra["cache"] == "hit"
    assert again.result is first.result
