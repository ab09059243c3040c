"""Write-through adapter: the decoded-trace cache, store-backed.

:class:`PersistentTraceCache` subclasses the LRU of
:mod:`repro.core.cache` so every existing call site (pipeline, fleet
server, ``repro.api``) keeps working unchanged; the only new behavior
is at the edges:

* a **memory miss** consults the store and, on a hit, hydrates the LRU
  with the stored trace (disk → memory, no re-decode);
* a **fill** writes through to the store (memory → disk), so the next
  process — or the next shard — starts warm.

Memory-tier stats stay on the inherited :class:`CacheStats`; the store
tiers count their own hits/misses/writes on the
:class:`~repro.store.store.DiagnosisStore`.
"""

from __future__ import annotations

from repro.core.cache import DecodedTraceCache, DiagnosisCaches, _LruCache
from repro.store.codec import decode_trace, encode_trace
from repro.store.store import DiagnosisStore


class PersistentTraceCache(DecodedTraceCache):
    """A :class:`DecodedTraceCache` whose misses fall through to the
    store.  Decoded traces are self-contained, so plain :meth:`get` can
    hydrate — ``get_or_decode`` works unchanged from the base class."""

    def __init__(self, store: DiagnosisStore):
        super().__init__()
        self.store = store

    def get(self, key: object):
        entry = super().get(key)
        if entry is not None:
            return entry
        module_fp, tid, buffer_hash, mtc_period = key  # type: ignore[misc]
        blob = self.store.get_trace(
            module_fp, tid, buffer_hash.hex(), mtc_period
        )
        if blob is None:
            return None
        trace = decode_trace(blob)
        if trace is None:
            return None
        _LruCache.put(self, key, trace)
        return trace

    def put(self, key: object, value: object) -> None:
        super().put(key, value)
        module_fp, tid, buffer_hash, mtc_period = key  # type: ignore[misc]
        self.store.put_trace(
            module_fp, tid, buffer_hash.hex(), mtc_period, encode_trace(value)
        )


def persistent_caches(store: DiagnosisStore) -> DiagnosisCaches:
    """:class:`DiagnosisCaches` whose trace tier is backed by ``store``
    — what a fleet server uses so restarts resume warm and shards share
    decodes.  Points-to analyses stay in memory (see
    :mod:`repro.store.store` for why)."""
    return DiagnosisCaches(traces=PersistentTraceCache(store))
