"""DiagnosisStore: schema versioning, the three tiers, counters."""

import sqlite3

import pytest

from repro.errors import FleetError
from repro.obs import MetricsRegistry
from repro.store import SCHEMA_VERSION, DiagnosisStore, scope_key
from repro.store.store import _DDL_V1

DIGEST = {"bug_kind": "order-violation", "failing_uid": 7, "diagnosed": True}


def test_fresh_store_is_at_current_schema(tmp_path):
    with DiagnosisStore(str(tmp_path / "s.db")) as db:
        assert db.schema_version == SCHEMA_VERSION
        assert db.counts() == {
            "reports": 0, "analyses": 0, "traces": 0,
            "evidence_nodes": 0, "evidence_edges": 0,
        }


def test_v1_file_migrates_forward(tmp_path):
    path = str(tmp_path / "old.db")
    conn = sqlite3.connect(path)
    with conn:
        for ddl in _DDL_V1:
            conn.execute(ddl)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '1')"
        )
        # a v1 row (no flight_recorder column yet)
        conn.execute(
            "INSERT INTO reports (signature, bug_id, digest, degraded, "
            "created_at) VALUES ('b|crash|1', 'b', '{}', 0, 0.0)"
        )
    conn.close()
    with DiagnosisStore(path) as db:
        assert db.schema_version == SCHEMA_VERSION
        # the migrated column exists and reads back as NULL for old rows
        report = db.get_report("b|crash|1")
        assert report is not None
        assert report.flight_recorder is None
        # and new rows can populate it
        assert db.put_report("b|crash|2", "b", DIGEST, flight_recorder="fr")
        assert db.get_report("b|crash|2").flight_recorder == "fr"


def test_v2_file_migrates_to_v3_with_validation_column(tmp_path):
    from repro.store.store import _MIGRATIONS

    path = str(tmp_path / "v2.db")
    conn = sqlite3.connect(path)
    with conn:
        for ddl in _DDL_V1:
            conn.execute(ddl)
        for statement in _MIGRATIONS[1]:  # bring the file to v2 exactly
            conn.execute(statement)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '2')"
        )
        # a v2 row (no validation column yet)
        conn.execute(
            "INSERT INTO reports (signature, bug_id, digest, degraded, "
            "created_at) VALUES ('b|crash|1', 'b', '{}', 0, 0.0)"
        )
    conn.close()
    with DiagnosisStore(path) as db:
        assert db.schema_version == SCHEMA_VERSION
        old = db.get_report("b|crash|1")
        assert old is not None
        assert old.validation is None  # old rows read back as NULL
        validation = {"status": "validated", "witnesses": [], "notes": []}
        assert db.put_report("b|crash|2", "b", DIGEST, validation=validation)
        assert db.get_report("b|crash|2").validation == validation


def test_validation_roundtrips_and_defaults_to_none():
    with DiagnosisStore() as db:
        validation = {
            "status": "refuted",
            "witnesses": [{"mode": "forced", "seed": 7}],
            "notes": ["forced order did not reproduce the failure"],
        }
        assert db.put_report("sig", "bug", DIGEST, validation=validation)
        assert db.get_report("sig").validation == validation
        assert db.put_report("bare", "bug", DIGEST)
        assert db.get_report("bare").validation is None


def test_future_schema_is_refused(tmp_path):
    path = str(tmp_path / "future.db")
    with DiagnosisStore(path):
        pass
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
    conn.close()
    with pytest.raises(FleetError):
        DiagnosisStore(path)


def test_report_roundtrip_and_idempotent_writes():
    with DiagnosisStore() as db:
        assert db.get_report("sig") is None  # counted as a miss
        assert db.put_report("sig", "bug", DIGEST) is True
        assert db.put_report("sig", "bug", {"other": 1}) is False  # first wins
        report = db.get_report("sig")
        assert report.digest == DIGEST
        assert report.bug_id == "bug"
        assert not report.degraded
        assert db.report_stats.hits == 1
        assert db.report_stats.misses == 1
        assert db.report_stats.writes == 1  # the duplicate did not count
        assert db.signatures() == ["sig"]


def test_degraded_reports_are_never_stored():
    with DiagnosisStore() as db:
        assert db.put_report("sig", "bug", DIGEST, degraded=True) is False
        assert db.get_report("sig") is None
        assert db.counts()["reports"] == 0


def test_analysis_and_trace_tiers_roundtrip():
    with DiagnosisStore() as db:
        assert db.get_analysis("fp", "whole", "andersen") is None
        assert db.put_analysis("fp", "whole", "andersen", b"payload")
        assert not db.put_analysis("fp", "whole", "andersen", b"other")
        assert db.get_analysis("fp", "whole", "andersen") == b"payload"

        assert db.get_trace("fp", 1, "abcd", 500) is None
        assert db.put_trace("fp", 1, "abcd", 500, b"trace")
        assert db.get_trace("fp", 1, "abcd", 500) == b"trace"
        assert db.get_trace("fp", 2, "abcd", 500) is None  # tid keys

        assert db.analysis_stats.writes == 1
        assert db.trace_stats.writes == 1
        assert db.counts() == {
            "reports": 0, "analyses": 1, "traces": 1,
            "evidence_nodes": 0, "evidence_edges": 0,
        }


def test_trace_misses_run_no_query_and_late_rows_stay_misses(tmp_path):
    path = str(tmp_path / "traces.db")
    with DiagnosisStore(path) as first:
        first.put_trace("fp", 1, "early", 500, b"t1")
    # ``other`` stands in for another process writing the same file
    with DiagnosisStore(path) as db, DiagnosisStore(path) as other:
        queries: list[str] = []
        db._conn.set_trace_callback(queries.append)
        assert db.get_trace("fp", 1, "early", 500) == b"t1"  # on disk at open
        assert db.get_trace("fp", 1, "absent", 500) is None
        assert len([q for q in queries if "FROM traces" in q]) == 1
        other.put_trace("fp", 2, "late", 500, b"t2")
        assert db.get_trace("fp", 2, "late", 500) is None  # written after open
        assert (db.trace_stats.hits, db.trace_stats.misses) == (1, 2)
        # writing the key makes it known, even though the row was there
        assert not db.put_trace("fp", 2, "late", 500, b"t2")
        assert db.get_trace("fp", 2, "late", 500) == b"t2"
    with DiagnosisStore(path) as reopened:
        assert reopened.get_trace("fp", 2, "late", 500) == b"t2"


def test_aggregate_stats_and_absorb_vocabulary():
    with DiagnosisStore() as db:
        db.put_report("sig", "bug", DIGEST)
        db.get_report("sig")
        db.get_analysis("fp", "whole", "andersen")  # miss
        registry = MetricsRegistry()
        db.absorb_into(registry)
        assert registry.counter("store_hits") == 1
        assert registry.counter("store_misses") == 1
        assert registry.counter("store_writes") == 1
        assert registry.counter("report_store_hits") == 1
        assert registry.counter("analysis_store_misses") == 1
        # absorb sets totals: re-absorbing is idempotent
        db.absorb_into(registry)
        assert registry.counter("store_writes") == 1


def test_rows_survive_reopen(tmp_path):
    path = str(tmp_path / "persist.db")
    with DiagnosisStore(path) as db:
        db.put_report("sig", "bug", DIGEST)
        db.put_analysis("fp", "whole", "andersen", b"a")
        db.put_trace("fp", 1, "hash", 500, b"t")
    with DiagnosisStore(path) as db:
        assert db.counts() == {
            "reports": 1, "analyses": 1, "traces": 1,
            "evidence_nodes": 0, "evidence_edges": 0,
        }
        assert db.get_report("sig").digest == DIGEST


def test_scope_key_is_order_free_and_marks_whole_program():
    assert scope_key(None) == "whole"
    assert scope_key({3, 1, 2}) == scope_key([2, 3, 1])
    assert scope_key({1}) != scope_key({2})


# -- evidence tier (schema v4) ---------------------------------------------


class _Sample:
    """Just enough of a TraceSample for build_evidence_graph."""

    def __init__(self, label, failing, buffers):
        self.label = label
        self.failing = failing
        self.buffers = buffers


def _graph():
    from repro.provenance import build_evidence_graph

    digest = {
        "bug_kind": "order-violation",
        "failing_uid": 7,
        "diagnosed": True,
        "ranked_patterns": ["W10 -> R12"],
        "stage_funnel": {"alias_candidates": 4, "rank1_candidates": 1},
    }
    return build_evidence_graph(
        digest,
        [_Sample("failure", True, {1: b"\x01\x02", 2: b"\x03"})],
        [_Sample("success-0", False, {1: b"\x01\x02"})],
    )


def test_evidence_roundtrip_preserves_graph_digest():
    graph = _graph()
    with DiagnosisStore() as db:
        assert db.put_evidence(graph) is True
        assert db.put_evidence(graph) is False  # content-keyed: no new rows
        served = db.evidence_for(graph.report_key)
        assert served is not None
        assert served.digest() == graph.digest()
        assert {n.digest for n in served.nodes} == {
            n.digest for n in graph.nodes
        }
        assert db.evidence_for("no-such-key") is None
        counts = db.counts()
        assert counts["evidence_nodes"] == len(graph.nodes)
        assert counts["evidence_edges"] == len(graph.edges)


def test_evidence_survives_reopen(tmp_path):
    path = str(tmp_path / "evidence.db")
    graph = _graph()
    with DiagnosisStore(path) as db:
        db.put_evidence(graph)
    with DiagnosisStore(path) as db:
        served = db.evidence_for(graph.report_key)
        assert served is not None
        assert served.digest() == graph.digest()


def test_evidence_stats_absorb_vocabulary():
    graph = _graph()
    with DiagnosisStore() as db:
        db.evidence_for(graph.report_key)  # miss
        db.put_evidence(graph)
        db.evidence_for(graph.report_key)  # hit
        registry = MetricsRegistry()
        db.absorb_into(registry)
        assert registry.counter("evidence_store_hits") == 1
        assert registry.counter("evidence_store_misses") == 1
        assert registry.counter("evidence_store_writes") == 1


def test_v3_file_migrates_to_v4_with_evidence_tables(tmp_path):
    from repro.store.store import _MIGRATIONS

    path = str(tmp_path / "v3.db")
    conn = sqlite3.connect(path)
    with conn:
        for ddl in _DDL_V1:
            conn.execute(ddl)
        for version in (1, 2):  # bring the file to v3 exactly
            for statement in _MIGRATIONS[version]:
                conn.execute(statement)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '3')"
        )
        conn.execute(
            "INSERT INTO reports (signature, bug_id, digest, degraded, "
            "created_at) VALUES ('b|crash|1', 'b', '{}', 0, 0.0)"
        )
    conn.close()
    graph = _graph()
    with DiagnosisStore(path) as db:
        assert db.schema_version == SCHEMA_VERSION
        assert db.get_report("b|crash|1") is not None  # old rows survive
        assert db.counts()["evidence_nodes"] == 0
        assert db.put_evidence(graph)  # new tables are writable
        assert db.evidence_for(graph.report_key).digest() == graph.digest()
