"""The trace codec and the write-through trace cache, end to end.

A stored trace is a miss unless its codec version matches, and a
second process (simulated by fresh adapter LRUs over a reopened store)
must reproduce the baseline digest without re-decoding anything.
"""

import sqlite3

import pytest

from repro import api
from repro.core.cache import AnalysisCache
from repro.fleet.server import report_digest
from repro.ir import parse_module
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer
from repro.store import DiagnosisStore, PersistentTraceCache, persistent_caches

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


def test_store_backed_diagnosis_matches_baseline_across_handles(
    evidence, tmp_path
):
    module, samples = evidence
    baseline = report_digest(api.diagnose(module, traces=samples).report)
    path = str(tmp_path / "codec.db")

    with DiagnosisStore(path) as db:
        first = api.diagnose(module, traces=samples, caches=persistent_caches(db))
        assert report_digest(first.report) == baseline
        assert db.trace_stats.writes >= 1

    # a fresh handle + fresh LRUs: everything must hydrate from disk
    with DiagnosisStore(path) as db:
        second = api.diagnose(module, traces=samples, caches=persistent_caches(db))
        assert report_digest(second.report) == baseline
        assert db.trace_stats.hits >= 1
        assert db.trace_stats.writes == 0  # nothing re-decoded


def test_persistent_caches_keep_analyses_in_memory(evidence, tmp_path):
    # only the trace tier is store-backed: a solved fixpoint is reused
    # from the in-memory LRU within one set of caches and never reaches
    # the file
    module, samples = evidence
    path = str(tmp_path / "memory.db")
    with DiagnosisStore(path) as db:
        caches = persistent_caches(db)
        assert type(caches.analysis) is AnalysisCache
        assert isinstance(caches.traces, PersistentTraceCache)
        assert caches.traces.store is db
        first = api.diagnose(module, traces=samples, caches=caches)
        assert caches.analysis.stats.misses >= 1
        assert caches.analysis.stats.hits == 0
        again = api.diagnose(module, traces=samples, caches=caches)
        assert caches.analysis.stats.hits >= 1
        assert report_digest(again.report) == report_digest(first.report)
        assert "analyses" not in db.counts()
    conn = sqlite3.connect(path)
    try:
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
    finally:
        conn.close()
    assert "analyses" not in tables
