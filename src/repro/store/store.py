"""The SQLite-backed diagnosis store.

One file holds the fleet's accumulated knowledge in three tiers:

* ``reports`` — finished diagnosis digests keyed by failure signature.
  This is the cross-process/cross-shard dedup tier: a signature stored
  by any server is served straight from disk by every other, with zero
  pipeline work.  Degraded reports (collection deadline hit, thinner
  evidence) are never stored — a re-report re-diagnoses with full
  evidence instead of freezing the degraded answer forever.
* ``traces`` — decoded per-thread traces keyed by ``(module
  fingerprint, tid, buffer hash, MTC period)``, mirroring
  :class:`repro.core.cache.DecodedTraceCache`.
* ``evidence_nodes`` / ``evidence_edges`` — each stored report's
  evidence graph (:mod:`repro.provenance`), keyed by report digest.

Solved points-to fixpoints are not stored.  An analysis is scoped to
the instructions one failure's traces executed, so only a recurrence of
that failure could reuse it, and the ``reports`` tier answers a
recurrence before any analysis runs.

The schema is versioned: ``meta.schema_version`` records what is on
disk, and :data:`_MIGRATIONS` carries forward migrations that an open
of an older file replays in order.  A fresh file is created at version
1 and migrated up, so the migration path is exercised on every create.

Writes use ``INSERT OR IGNORE``: tiers are content-keyed (an identical
key means identical evidence), so the first write wins and repeats are
free.  ``writes`` counts rows actually inserted.  The store is
thread-safe (one connection, one lock) and safe to share across the
shards of one process group; separate processes open their own store
on the same path — WAL mode gives them concurrent readers plus a
single writer without ``SQLITE_BUSY`` storms.

The store knows which ``traces`` keys it holds: it reads them once at
open and adds each key it writes, so a lookup of a key it does not hold
is a counted miss that runs no query (almost every trace lookup of a
cold diagnosis misses).  A row another process writes after this store
opened stays a miss here, and its buffer is decoded again, which is
always correct.  The key set takes memory and open time in proportion
to the ``traces`` rows (about 330 bytes a row), and nothing deletes
those rows: a re-reported failure adds none, but every new failure
adds its buffers.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.core.cache import CacheStats
from repro.errors import FleetError

SCHEMA_VERSION = 5

_DDL_V1 = (
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS reports (
        signature TEXT PRIMARY KEY,
        bug_id TEXT NOT NULL,
        digest TEXT NOT NULL,
        degraded INTEGER NOT NULL DEFAULT 0,
        created_at REAL NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS traces (
        module_fp TEXT NOT NULL,
        tid INTEGER NOT NULL,
        buffer_hash TEXT NOT NULL,
        mtc_period INTEGER NOT NULL,
        payload BLOB NOT NULL,
        created_at REAL NOT NULL,
        PRIMARY KEY (module_fp, tid, buffer_hash, mtc_period)
    )""",
)

# version N -> statements that bring an N-schema file to N+1
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    # v2: reports carry the flight recorder of the diagnosing job, so a
    # stored root cause keeps its collection/analysis provenance
    1: ("ALTER TABLE reports ADD COLUMN flight_recorder TEXT",),
    # v3: reports carry their repro.validate outcome (status + witness
    # schedules as JSON) so validated/refuted is queryable per row
    2: ("ALTER TABLE reports ADD COLUMN validation TEXT",),
    # v4: provenance — every report's evidence graph (content-addressed
    # nodes + stage-stamped edges, see repro.provenance) is persisted
    # and queryable via evidence_for(report_key)
    3: (
        """CREATE TABLE IF NOT EXISTS evidence_nodes (
            report_key TEXT NOT NULL,
            node_digest TEXT NOT NULL,
            kind TEXT NOT NULL,
            payload TEXT NOT NULL,
            PRIMARY KEY (report_key, node_digest)
        )""",
        """CREATE TABLE IF NOT EXISTS evidence_edges (
            report_key TEXT NOT NULL,
            src TEXT NOT NULL,
            dst TEXT NOT NULL,
            stage TEXT NOT NULL,
            span_id INTEGER,
            PRIMARY KEY (report_key, src, dst, stage)
        )""",
    ),
    # v5: solved points-to fixpoints are no longer stored (no run read
    # one back); IF EXISTS keeps a concurrent second migration harmless
    4: ("DROP TABLE IF EXISTS analyses",),
}


@dataclass(frozen=True)
class StoredReport:
    """One persisted diagnosis: the digest plus its metadata."""

    signature: str
    bug_id: str
    digest: dict
    degraded: bool
    flight_recorder: str | None
    created_at: float
    validation: dict | None = None


class DiagnosisStore:
    """The persistent report/trace/evidence store (one SQLite file).

    ``path=":memory:"`` gives an ephemeral store (used by the check
    harness differentials); any other path persists across processes.
    Per-tier :class:`~repro.core.cache.CacheStats` count hits, misses,
    and writes; :meth:`absorb_into` folds them into a metrics registry
    under the ``store_*`` (aggregate) and ``{tier}_store_*`` (per-tier)
    vocabularies.
    """

    def __init__(self, path: str = ":memory:", tracer=None):
        self.path = path
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer  # noqa: N813
        self.tracer = tracer
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(
                path, check_same_thread=False, timeout=30.0
            )
        except sqlite3.Error as exc:
            raise FleetError(f"cannot open diagnosis store {path!r}: {exc}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._migrate()
        with self._lock:
            self._trace_keys = set(
                self._conn.execute(
                    "SELECT module_fp, tid, buffer_hash, mtc_period FROM traces"
                ).fetchall()
            )
        self.report_stats = CacheStats()
        self.trace_stats = CacheStats()
        self.evidence_stats = CacheStats()

    # -- schema ------------------------------------------------------------

    def _migrate(self) -> None:
        with self._lock, self._conn:
            for ddl in _DDL_V1:
                self._conn.execute(ddl)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            version = int(row[0]) if row else 1
            if version > SCHEMA_VERSION:
                raise FleetError(
                    f"store {self.path!r} has schema v{version}; this build "
                    f"understands up to v{SCHEMA_VERSION}"
                )
            while version < SCHEMA_VERSION:
                for statement in _MIGRATIONS[version]:
                    try:
                        self._conn.execute(statement)
                    except sqlite3.OperationalError as exc:
                        # replaying onto a file another process already
                        # migrated: duplicate-column is the benign race
                        if "duplicate column" not in str(exc):
                            raise
                version += 1
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES "
                "('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )

    @property
    def schema_version(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        return int(row[0]) if row else 0

    # -- reports -----------------------------------------------------------

    def get_report(self, signature: str) -> StoredReport | None:
        with self.tracer.span("store_get", tier="report") as span:
            with self._lock:
                row = self._conn.execute(
                    "SELECT bug_id, digest, degraded, flight_recorder, "
                    "created_at, validation FROM reports WHERE signature=?",
                    (signature,),
                ).fetchone()
            if row is None:
                self.report_stats.misses += 1
                span.set(outcome="miss")
                return None
            self.report_stats.hits += 1
            span.set(outcome="hit")
            return StoredReport(
                signature=signature,
                bug_id=row[0],
                digest=json.loads(row[1]),
                degraded=bool(row[2]),
                flight_recorder=row[3],
                created_at=row[4],
                validation=json.loads(row[5]) if row[5] else None,
            )

    def put_report(
        self,
        signature: str,
        bug_id: str,
        digest: dict,
        degraded: bool = False,
        flight_recorder: str | None = None,
        validation: dict | None = None,
    ) -> bool:
        """Store a finished diagnosis; returns True if the row is new.

        Degraded diagnoses are refused: serving thinner-than-wanted
        evidence forever would freeze a transient outage into the
        fleet's permanent answer."""
        if degraded:
            return False
        with self.tracer.span("store_put", tier="report") as span:
            with self._lock, self._conn:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO reports (signature, bug_id, "
                    "digest, degraded, flight_recorder, created_at, "
                    "validation) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        signature,
                        bug_id,
                        json.dumps(digest, sort_keys=True),
                        int(degraded),
                        flight_recorder,
                        time.time(),
                        (
                            json.dumps(validation, sort_keys=True)
                            if validation is not None
                            else None
                        ),
                    ),
                )
            inserted = cursor.rowcount > 0
            if inserted:
                self.report_stats.writes += 1
            span.set(outcome="inserted" if inserted else "duplicate")
            return inserted

    def signatures(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT signature FROM reports ORDER BY signature"
            ).fetchall()
        return [r[0] for r in rows]

    # -- traces ------------------------------------------------------------

    def get_trace(
        self, module_fp: str, tid: int, buffer_hash: str, mtc_period: int
    ) -> bytes | None:
        key = (module_fp, tid, buffer_hash, mtc_period)
        with self.tracer.span("store_get", tier="trace") as span:
            row = None
            if key in self._trace_keys:
                with self._lock:
                    row = self._conn.execute(
                        "SELECT payload FROM traces WHERE module_fp=? AND "
                        "tid=? AND buffer_hash=? AND mtc_period=?",
                        key,
                    ).fetchone()
            if row is None:
                self.trace_stats.misses += 1
                span.set(outcome="miss")
                return None
            self.trace_stats.hits += 1
            span.set(outcome="hit", bytes=len(row[0]))
            return row[0]

    def put_trace(
        self,
        module_fp: str,
        tid: int,
        buffer_hash: str,
        mtc_period: int,
        payload: bytes,
    ) -> bool:
        with self.tracer.span("store_put", tier="trace") as span:
            with self._lock, self._conn:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO traces (module_fp, tid, "
                    "buffer_hash, mtc_period, payload, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (module_fp, tid, buffer_hash, mtc_period, payload, time.time()),
                )
                self._trace_keys.add((module_fp, tid, buffer_hash, mtc_period))
            inserted = cursor.rowcount > 0
            if inserted:
                self.trace_stats.writes += 1
            span.set(outcome="inserted" if inserted else "duplicate")
            return inserted

    # -- evidence graphs ---------------------------------------------------

    def put_evidence(self, graph) -> bool:
        """Persist one report's :class:`~repro.provenance.EvidenceGraph`.

        Content-keyed like every other tier (nodes by digest, edges by
        (src, dst, stage)): re-persisting the graph a replayed diagnosis
        rebuilt is free, and the stored graph digests identically to the
        in-memory one.  Returns True when any row was new."""
        with self.tracer.span("store_put", tier="evidence") as span:
            inserted = 0
            with self._lock, self._conn:
                for node in graph.nodes:
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO evidence_nodes (report_key, "
                        "node_digest, kind, payload) VALUES (?, ?, ?, ?)",
                        (
                            graph.report_key,
                            node.digest,
                            node.kind,
                            json.dumps(node.payload, sort_keys=True),
                        ),
                    )
                    inserted += cursor.rowcount
                for edge in graph.edges:
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO evidence_edges (report_key, "
                        "src, dst, stage, span_id) VALUES (?, ?, ?, ?, ?)",
                        (graph.report_key, edge.src, edge.dst, edge.stage,
                         edge.span_id),
                    )
                    inserted += cursor.rowcount
            if inserted:
                self.evidence_stats.writes += 1
            span.set(outcome="inserted" if inserted else "duplicate",
                     rows=inserted)
            return inserted > 0

    def evidence_for(self, report_key: str):
        """The persisted evidence graph of one report digest (by its
        :func:`~repro.provenance.report_key`), or None."""
        from repro.provenance import EvidenceEdge, EvidenceGraph, EvidenceNode

        with self.tracer.span("store_get", tier="evidence") as span:
            with self._lock:
                node_rows = self._conn.execute(
                    "SELECT node_digest, kind, payload FROM evidence_nodes "
                    "WHERE report_key=? ORDER BY node_digest",
                    (report_key,),
                ).fetchall()
                edge_rows = self._conn.execute(
                    "SELECT src, dst, stage, span_id FROM evidence_edges "
                    "WHERE report_key=? ORDER BY src, dst, stage",
                    (report_key,),
                ).fetchall()
            if not node_rows:
                self.evidence_stats.misses += 1
                span.set(outcome="miss")
                return None
            self.evidence_stats.hits += 1
            span.set(outcome="hit", nodes=len(node_rows), edges=len(edge_rows))
            return EvidenceGraph(
                report_key=report_key,
                nodes=tuple(
                    EvidenceNode(
                        digest=r[0], kind=r[1], payload=json.loads(r[2])
                    )
                    for r in node_rows
                ),
                edges=tuple(
                    EvidenceEdge(src=r[0], dst=r[1], stage=r[2], span_id=r[3])
                    for r in edge_rows
                ),
            )

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Aggregate across the tiers (the ``store_*`` counters)."""
        tiers = (
            self.report_stats,
            self.trace_stats,
            self.evidence_stats,
        )
        return CacheStats(
            hits=sum(t.hits for t in tiers),
            misses=sum(t.misses for t in tiers),
            evictions=sum(t.evictions for t in tiers),
            writes=sum(t.writes for t in tiers),
        )

    def counts(self) -> dict[str, int]:
        """Row counts per tier — what a warm restart has to work with."""
        with self._lock:
            return {
                table: self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                for table in (
                    "reports",
                    "traces",
                    "evidence_nodes",
                    "evidence_edges",
                )
            }

    def absorb_into(self, registry) -> None:
        """Snapshot store counters into a
        :class:`~repro.obs.MetricsRegistry` (idempotent: cumulative
        totals are *set*, not incremented — same contract as
        ``absorb_cache_stats``)."""
        registry.absorb_cache_stats("store", self.stats)
        registry.absorb_cache_stats("report_store", self.report_stats)
        registry.absorb_cache_stats("trace_store", self.trace_stats)
        registry.absorb_cache_stats("evidence_store", self.evidence_stats)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "DiagnosisStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
