"""Content-keyed caches for the diagnosis hot path.

A fleet server diagnoses the same programs over and over: the same bug
recurs across endpoints and across days, and step 8 keeps shipping
snapshots of deterministic executions.  Re-deriving module-level static
facts, re-decoding identical PT buffers, and re-solving identical
points-to problems is pure waste.  Three layers fix that:

* :class:`ModuleIndex` / :func:`module_index` — per-module static facts
  (instruction count, collected return values, content fingerprint)
  computed once per live module object and shared by every analysis.
  This is what makes the *hybrid* analysis cost proportional to the
  trace, not the program: constraint generation no longer walks the
  whole module to find the executed slice.
* :class:`AnalysisCache` — memoizes solved points-to analyses keyed by
  (module fingerprint, frozen executed scope, algorithm).  A repeat
  diagnosis of the same bug with the same evidence skips constraint
  generation and solving entirely.
* :class:`DecodedTraceCache` — memoizes decoded per-thread traces keyed
  by (module fingerprint, tid, buffer hash, MTC period).  Snapshots
  shared across diagnoses decode once; decoded traces are treated as
  immutable by the whole pipeline.

Keys are *content* keys: a module whose IR changed fingerprints
differently (the printer round-trips the full IR text), so a stale hit
is impossible as long as finalized modules are not mutated in place —
the invariant the rest of the stack already relies on.

Both caches are thread-safe, LRU-bounded, and count hits/misses/
evictions so the fleet can export cache health as metrics.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ir.instructions import Ret
from repro.ir.module import Module
from repro.ir.values import Constant, NullPointer, Value


class ModuleIndex:
    """Static per-module facts every analysis needs, computed once."""

    def __init__(self, module: Module):
        self.instruction_count = 0
        # trackable return values per function, collected module-wide
        # (returns matter whenever an executed call targets the function,
        # even if the ret itself is outside the executed scope)
        self.returns_of: dict[object, list[Value]] = {}
        for fn in module.functions.values():
            rets: list[Value] = []
            for instr in fn.instructions():
                self.instruction_count += 1
                if isinstance(instr, Ret) and instr.value is not None:
                    if not isinstance(instr.value, (Constant, NullPointer)):
                        rets.append(instr.value)
            self.returns_of[fn] = rets
        self._module_ref = weakref.ref(module)
        self._fingerprint: str | None = None

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the printed IR: a content key for the module."""
        if self._fingerprint is None:
            module = self._module_ref()
            if module is None:  # pragma: no cover - module died mid-use
                raise RuntimeError("module was garbage-collected")
            from repro.ir.printer import print_module

            self._fingerprint = hashlib.sha256(
                print_module(module).encode()
            ).hexdigest()
        return self._fingerprint


_INDEX_LOCK = threading.Lock()
_INDEXES: "weakref.WeakKeyDictionary[Module, ModuleIndex]" = (
    weakref.WeakKeyDictionary()
)


def module_index(module: Module) -> ModuleIndex:
    """The (cached) static index for a finalized module."""
    with _INDEX_LOCK:
        index = _INDEXES.get(module)
        if index is None:
            index = ModuleIndex(module)
            _INDEXES[module] = index
        return index


def module_fingerprint(module: Module) -> str:
    """Content fingerprint of a module (cached via its index)."""
    return module_index(module).fingerprint


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    # persistent tiers (repro.store) count fills; pure in-memory LRUs
    # leave this at zero
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_counters(self, prefix: str = "") -> dict[str, int]:
        """The unified cache-counter vocabulary (``{prefix}hits`` …) a
        :class:`repro.obs.MetricsRegistry` absorbs via
        ``absorb_cache_stats``.  Covers the persistent-store tiers too:
        with ``prefix="store_"`` this yields ``store_hits`` /
        ``store_misses`` / ``store_writes`` / ``store_evictions``."""
        return {
            f"{prefix}hits": self.hits,
            f"{prefix}misses": self.misses,
            f"{prefix}evictions": self.evictions,
            f"{prefix}writes": self.writes,
        }


class _LruCache:
    """Thread-safe LRU with hit/miss/eviction accounting."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("cache needs max_entries >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[object, object] = OrderedDict()

    def get(self, key: object) -> object | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass
class CachedAnalysis:
    """One solved analysis: the constraint system plus its result."""

    system: object  # ConstraintSystem
    result: object  # AndersenResult | SteensgaardResult


class AnalysisCache(_LruCache):
    """Memoized points-to analyses, content-keyed.

    Key: (module fingerprint, frozen executed scope or None, algorithm).
    The fleet dedup path — the same bug reported again with the same
    evidence — hits this and skips points-to entirely.
    """

    def __init__(self, max_entries: int = 64):
        super().__init__(max_entries)

    @staticmethod
    def key_for(
        module: Module, executed_uids: set[int] | None, algorithm: str
    ) -> tuple:
        scope = None if executed_uids is None else frozenset(executed_uids)
        return (module_fingerprint(module), scope, algorithm)

    def seed_candidate(
        self,
        module: Module,
        executed_uids: set[int] | None,
        algorithm: str = "andersen",
    ) -> CachedAnalysis | None:
        """The best cached *sub-scope* analysis to seed a new solve.

        A cached entry qualifies when it is the same module fingerprint
        and algorithm but a strictly smaller executed scope: its
        constraints are a subset of the target's, so its fixpoint is
        contained in the target's and can be replayed as a starting
        point (see :func:`repro.core.andersen.solve`).  The largest
        qualifying scope wins — it prepays the most propagation.

        This is a read-only scan: no hit/miss accounting, no LRU
        reordering — a seed probe must not perturb cache stats the
        fleet asserts on.
        """
        if executed_uids is None:
            return None
        target = frozenset(executed_uids)
        fingerprint = module_fingerprint(module)
        best_key: tuple | None = None
        best_size = -1
        with self._lock:
            for key in self._entries:
                fp, scope, algo = key
                if fp != fingerprint or algo != algorithm:
                    continue
                if scope is None or not (scope < target):
                    continue
                if len(scope) > best_size:
                    best_key, best_size = key, len(scope)
            if best_key is None:
                return None
            return self._entries[best_key]  # type: ignore[return-value]


class DecodedTraceCache(_LruCache):
    """Memoized decoded thread traces, content-keyed.

    Key: (module fingerprint, tid, buffer SHA-256, MTC period).  The
    returned :class:`~repro.pt.decoder.ThreadTrace` is shared between
    diagnoses and must be treated as read-only — ``process_snapshot``
    reads its run records in place and files every instance it makes,
    anchors included, in the ``ProcessedTrace`` it builds.
    """

    def __init__(self, max_entries: int = 1024):
        super().__init__(max_entries)

    def get_or_decode(
        self,
        module: Module,
        data: bytes,
        tid: int,
        mtc_period_ns: int,
        events: dict[str, int] | None = None,
        tracer=None,
    ):
        key = (
            module_fingerprint(module),
            tid,
            hashlib.sha256(data).digest(),
            mtc_period_ns,
        )
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer  # noqa: N813
        with tracer.span("trace_cache_lookup", tid=tid, bytes=len(data)) as span:
            trace = self.get(key)
            if trace is not None:
                span.set(outcome="hit")
                if events is not None:
                    events["trace_cache_hits"] = events.get("trace_cache_hits", 0) + 1
                return trace
            span.set(outcome="miss")
            from repro.pt.decoder import decode_thread_trace

            trace = decode_thread_trace(module, data, tid, mtc_period_ns)
            self.put(key, trace)
            if events is not None:
                events["trace_cache_misses"] = (
                    events.get("trace_cache_misses", 0) + 1
                )
            return trace


@dataclass
class CollectedEvidence:
    """One satisfied step-8 collection: the samples plus how it ran."""

    samples: tuple  # tuple[TraceSample, ...], treated as immutable
    attempts: int


class CollectedEvidenceCache(_LruCache):
    """Memoized step-8 evidence for recurring failures, content-keyed.

    Collection is deterministic in (module, failing seed, policy): the
    same failure recurring across the fleet re-derives byte-identical
    evidence, execution by execution.  Caching the collected samples
    turns the production steady state — the same bug failing again —
    into zero remote executions: the diagnosis replays the stored
    evidence through the (also cached) analysis pipeline.

    Key: (module fingerprint, program/workload id, failing seed,
    failing uid, collection start seed, full stopping policy).  Only
    *satisfied* collections belong here — a degraded run (deadline hit,
    endpoints scarce) must collect for real next time.
    """

    def __init__(self, max_entries: int = 128):
        super().__init__(max_entries)

    @staticmethod
    def key_for(
        module: Module,
        workload_id: str,
        failing_seed: int,
        failing_uid: int,
        start_seed: int,
        policy: tuple,
    ) -> tuple:
        return (
            module_fingerprint(module),
            workload_id,
            failing_seed,
            failing_uid,
            start_seed,
            policy,
        )


@dataclass
class DiagnosisCaches:
    """The caches a server shares across all its diagnoses."""

    analysis: AnalysisCache = field(default_factory=AnalysisCache)
    traces: DecodedTraceCache = field(default_factory=DecodedTraceCache)
    evidence: CollectedEvidenceCache = field(
        default_factory=CollectedEvidenceCache
    )
