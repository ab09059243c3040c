"""Rebindable serialization for the persistent store's payload tiers.

Decoded traces are pure data (uids, tids, time intervals) and pickle
across processes unchanged.  Points-to fixpoints do not: IR ``Value``
objects compare by identity, so a naively pickled ``AndersenResult``
holds *copies* of the module's values and silently answers "empty" to
every query against the live module.  The fix exploits determinism:
``generate_constraints`` over a byte-identical module with an identical
scope enumerates semantically corresponding values in the same order,
so a fixpoint is stored as points-to sets over *node indices* of that
canonical enumeration, and decoding regenerates the (cheap) constraint
system from the live module and rebinds each index to the live value.
The expensive part — solving — is what the store saves.

Encoding is verified, not assumed: a points-to key that does not
appear in the canonical enumeration (a solver-internal node we cannot
rebind) makes the fixpoint non-persistable and ``encode_analysis``
returns ``None`` — the caller just skips the store and re-solves on
the next process, which is always correct.  ``decode_analysis``
likewise returns ``None`` on any payload it cannot rebind (codec
version drift, index out of range), turning corruption into a cache
miss instead of a wrong answer.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict

from repro.core.andersen import AndersenResult, SolverStats, _ContentsNode
from repro.core.cache import CachedAnalysis
from repro.core.constraints import AbstractObject, generate_constraints

# 2: a ThreadTrace summarises its timing (TimingSummary) instead of
# listing every tick, so a trace stored in the old layout is a miss
# 3: DynamicInstruction is a named tuple, not a frozen dataclass; a
# trace pickled with the dataclass cannot be loaded, so it is a miss
# 4: a ThreadTrace keeps its decoded run records instead of one value
# per executed instruction, so a trace stored in the old layout is a miss
CODEC_VERSION = 4

_PICKLE_PROTOCOL = 4  # stable across the supported CPythons (3.10+)


def scope_key(executed_uids) -> str:
    """A stable text key for an analysis scope: ``whole`` for the
    whole-program analysis, else a hash of the sorted executed set."""
    if executed_uids is None:
        return "whole"
    text = ",".join(str(uid) for uid in sorted(executed_uids))
    return hashlib.sha256(text.encode()).hexdigest()


def _iter_system_values(system):
    """Every value the solver can attach a points-to set to, in the
    deterministic order constraint generation produced them (plus the
    function params/returns indirect-call resolution binds on the fly)."""
    for v in system.addr_of:
        yield v
    for dst, src in system.copies:
        yield dst
        yield src
    for dst, pointer in system.loads:
        yield dst
        yield pointer
    for pointer, src in system.stores:
        yield pointer
        yield src
    for instr, callee in system.indirect_calls:
        yield instr
        yield callee
        for arg in getattr(instr, "args", ()):
            yield arg
    for fn in system.functions_by_object.values():
        yield from fn.params
    for rets in system.returns_of.values():
        yield from rets


def _enumerate_nodes(system) -> list:
    """The canonical node list: first occurrence wins, identity-deduped
    (IR values hash by identity; constants by content, which is also
    stable across regenerations of the same module)."""
    order: list = []
    seen: set[int] = set()
    for value in _iter_system_values(system):
        if id(value) not in seen:
            seen.add(id(value))
            order.append(value)
    return order


def _obj_key(obj: AbstractObject) -> tuple[str, int, str]:
    return (obj.kind, obj.uid, obj.name)


def encode_analysis(system, result) -> bytes | None:
    """Serialize one solved analysis, or ``None`` when it cannot be
    rebound on load (non-Andersen result, unenumerable solver node)."""
    if not isinstance(result, AndersenResult):
        return None  # Steensgaard results have a different shape; re-solve
    index: dict[int, int] = {}
    for position, value in enumerate(_enumerate_nodes(system)):
        index[id(value)] = position
    entries: list[tuple] = []
    for node, objs in result._pts.items():
        if not objs:
            continue
        if isinstance(node, _ContentsNode):
            ref: tuple = ("c", _obj_key(node.obj))
        else:
            position = index.get(id(node))
            if position is None:
                return None  # solver-internal node we cannot rebind
            ref = ("v", position)
        entries.append((ref, sorted(_obj_key(o) for o in objs)))
    payload = {
        "codec": CODEC_VERSION,
        "pts": entries,
        "stats": asdict(result.stats),
    }
    return pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)


def decode_analysis(
    blob: bytes, module, executed_uids, algorithm: str
) -> CachedAnalysis | None:
    """Rebind a stored fixpoint onto the live module, or ``None`` (a
    miss — the caller re-solves) when the payload cannot be rebound."""
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    if not isinstance(payload, dict) or payload.get("codec") != CODEC_VERSION:
        return None
    system = generate_constraints(module, executed_uids)
    order = _enumerate_nodes(system)
    pts: dict[object, set[AbstractObject]] = {}
    for ref, obj_keys in payload["pts"]:
        objs = {AbstractObject(*key) for key in obj_keys}
        if ref[0] == "c":
            node: object = _ContentsNode(AbstractObject(*ref[1]))
        else:
            position = ref[1]
            if not 0 <= position < len(order):
                return None  # enumeration drifted; treat as corruption
            node = order[position]
        pts[node] = objs
    stats = SolverStats(**payload.get("stats", {}))
    return CachedAnalysis(system, AndersenResult(pts, stats))


def encode_trace(trace) -> bytes:
    """Decoded traces are identity-free plain data; pickle is exact."""
    return pickle.dumps(
        {"codec": CODEC_VERSION, "trace": trace}, protocol=_PICKLE_PROTOCOL
    )


def decode_trace(blob: bytes):
    """The stored :class:`~repro.pt.decoder.ThreadTrace`, or ``None``
    on version drift/corruption (a miss; the caller re-decodes)."""
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    if not isinstance(payload, dict) or payload.get("codec") != CODEC_VERSION:
        return None
    return payload.get("trace")
