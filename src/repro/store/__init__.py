"""``repro.store`` — the persistent diagnosis store.

Everything the fleet learns — diagnosis reports, their evidence graphs,
decoded PT traces — used to live in process memory and die with the
process.  This package gives those tiers a disk-backed home (one SQLite
file in WAL mode) plus a write-through trace cache, so a restarted
server resumes with a hot cache and a signature diagnosed anywhere in
the fleet is a store hit everywhere else.  Points-to analyses stay in
process memory (see :mod:`repro.store.store`).

Layers::

    store     DiagnosisStore: the SQLite schema (reports / traces /
              evidence), versioned with forward migrations
    codec     versioned pickling of decoded traces; a payload from
              another codec version loads as a miss
    adapters  PersistentTraceCache: the in-memory trace LRU of
              repro.core.cache, hydrating from the store on miss and
              writing through on fill
"""

from repro.store.adapters import PersistentTraceCache, persistent_caches
from repro.store.codec import decode_trace, encode_trace
from repro.store.store import SCHEMA_VERSION, DiagnosisStore, StoredReport

__all__ = [
    "SCHEMA_VERSION",
    "DiagnosisStore",
    "StoredReport",
    "PersistentTraceCache",
    "persistent_caches",
    "encode_trace",
    "decode_trace",
]
