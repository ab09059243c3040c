"""Bug pattern computation: step 6 of Lazy Diagnosis (§4.4).

Takes the type-ranked candidate instructions and the partially-ordered
dynamic trace, and generates the concrete concurrency-bug patterns of
Figure 1 that are consistent with this execution:

* **order violations** — two accesses to the same object from different
  threads, at least one a write, with a definite cross-thread order
  (Figure 1b; both WR and RW shapes, where "the write never executed"
  counts as the R->W shape, since a fail-stop crash can kill the writer);
* **single-variable atomicity violations** — RWR / WWR / RWW / WRW
  triples where the first and third access come from one thread and the
  middle access from another, interleaved between them (Figure 1c);
* **deadlocks** — circular hold/attempt shapes over lock operations
  (Figure 1a), built from the cycle the hang detector reports plus the
  lock acquisitions found in the trace.

Patterns are *anchored at the failing instruction* (the paper's §7
assumption) and identified by a uid-based signature so the statistical
stage can test each pattern's presence across many executions.

This is where partial flow sensitivity enters: candidates were computed
flow-insensitively, and only here do the dynamic instances get
"executes-before" edges from the trace's timing intervals (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trace_processing import ProcessedTrace
from repro.core.type_ranking import RankedCandidate, RankingResult
from repro.ir.module import Module
from repro.pt.decoder import DynamicInstruction

ORDER_KINDS = {"WR", "RW", "WW"}
ATOMICITY_KINDS = {"RWR", "WWR", "RWW", "WRW"}

_ROLE = {"read": "R", "write": "W", "lock": "L", "unlock": "U"}


@dataclass(frozen=True)
class PatternSignature:
    """The execution-independent identity of a pattern.

    ``events`` is the ordered tuple of (uid, role) pairs; ``shape``
    encodes which events share a thread (e.g. atomicity violations have
    shape "aba").  Two executions exhibit "the same pattern" iff their
    signatures are equal.
    """

    kind: str  # "WR" | "RW" | "WW" | "RWR" | ... | "deadlock"
    events: tuple[tuple[int, str], ...]
    shape: str

    def __str__(self) -> str:
        evs = " -> ".join(f"{role}@{uid}" for uid, role in self.events)
        return f"{self.kind}[{self.shape}]({evs})"


@dataclass
class PatternInstance:
    """A pattern observed (or inferred) in one specific execution."""

    signature: PatternSignature
    dynamics: tuple[DynamicInstruction | None, ...]  # None = did not execute
    rank: int  # best type rank among constituent candidates

    def gaps(self) -> list[int | None]:
        """Apparent time gaps between consecutive events (ns), None if
        an event is missing or the order is only partial."""
        out: list[int | None] = []
        for a, b in zip(self.dynamics, self.dynamics[1:]):
            if a is None or b is None:
                out.append(None)
            else:
                out.append(max(0, b.t_lo - a.t_hi))
        return out


@dataclass
class PatternComputation:
    """Step-6 output for one execution."""

    patterns: list[PatternInstance] = field(default_factory=list)
    candidates_explored: int = 0

    def signatures(self) -> set[PatternSignature]:
        return {p.signature for p in self.patterns}

    def summary(self) -> dict[str, int]:
        """Span-attribute-sized digest of one execution's step-6 work."""
        return {
            "patterns": len(self.patterns),
            "distinct_signatures": len(self.signatures()),
            "candidates_explored": self.candidates_explored,
        }


def compute_crash_patterns(
    trace: ProcessedTrace,
    ranking: RankingResult,
    anchor_role: str,
    max_patterns: int = 256,
    anchor: DynamicInstruction | None = None,
    derive_write_anchor: bool = True,
    anchor_objects: frozenset | None = None,
) -> PatternComputation:
    """Order-violation and atomicity patterns anchored at the failure.

    ``anchor_role`` is "R" or "W" — the access kind of the anchor
    instruction (the failing access, or the backing/chain load recovered
    by backward data-flow).  The ranking should be computed over the
    union of executed sets across all gathered traces, so that shapes
    whose later events never ran in the failing execution (the crash
    killed the other thread) still have those events among the
    candidates.

    When the anchor is a read whose corrupt value was produced by the
    anchoring thread's own earlier write (a lost-update shape like RWW),
    the pattern lives around that write, not the read: with
    ``derive_write_anchor`` the computation re-anchors once at the last
    same-thread candidate write before the anchor.
    """
    out = PatternComputation()
    anchors: list[tuple[DynamicInstruction, str, frozenset | None]] = []
    primary = anchor if anchor is not None else trace.anchor
    if primary is None:
        return out
    anchors.append((primary, anchor_role, anchor_objects))
    if derive_write_anchor and anchor_role == "R":
        derived = _derived_write_anchor(trace, ranking, primary, anchor_objects)
        if derived is not None:
            anchors.append(derived)
    for a, role, objs in anchors:
        _patterns_for_anchor(out, trace, ranking, a, role, max_patterns, objs)
    return out


def _derived_write_anchor(
    trace: ProcessedTrace,
    ranking: RankingResult,
    anchor: DynamicInstruction,
    anchor_objects: frozenset | None,
) -> tuple[DynamicInstruction, str, frozenset | None] | None:
    """The anchoring thread's last candidate write before the anchor."""
    best: DynamicInstruction | None = None
    best_objs: frozenset | None = None
    for cand in ranking.candidates:
        if _ROLE.get(cand.access) != "W":
            continue
        if anchor_objects and not (cand.objects & anchor_objects):
            continue
        for d in trace.instances(cand.uid):
            if d.tid != anchor.tid or not d.before(anchor):
                continue
            if best is None or best.before(d):
                best = d
                best_objs = cand.objects or anchor_objects
    if best is None:
        return None
    return (best, "W", best_objs)


def _patterns_for_anchor(
    out: PatternComputation,
    trace: ProcessedTrace,
    ranking: RankingResult,
    anchor: DynamicInstruction,
    anchor_role: str,
    max_patterns: int,
    anchor_objects: frozenset | None = None,
) -> None:
    # Only candidates that may touch the anchor's memory participate:
    # the anchor operand's points-to set is what step 5 seeded.
    if anchor_objects:
        candidates = [
            c for c in ranking.candidates if c.objects & anchor_objects
        ]
    else:
        candidates = list(ranking.candidates)
    # -- pairs: order violations ----------------------------------------
    for cand in candidates:
        if len(out.patterns) >= max_patterns:
            return
        role = _ROLE.get(cand.access)
        if role not in ("R", "W"):
            continue
        if role == "R" and anchor_role == "R":
            continue  # no write involved
        out.candidates_explored += 1
        inst = trace.last_instance_before(cand.uid, anchor)
        inst = _distinct_thread(inst, anchor)
        if inst is not None:
            # X -> anchor order violation (Figure 6a)
            sig = PatternSignature(
                kind=f"{role}{anchor_role}",
                events=((cand.uid, role), (anchor.uid, anchor_role)),
                shape="ab",
            )
            out.patterns.append(PatternInstance(sig, (inst, anchor), cand.rank))
        else:
            executed_after = any(
                anchor.before(d) and d.tid != anchor.tid
                for d in trace.instances(cand.uid)
            )
            never_ran = not trace.instances(cand.uid)
            if executed_after or never_ran:
                # anchor -> X shape; "X never executed" also matches (a
                # fail-stop crash can kill the other thread's access).
                sig = PatternSignature(
                    kind=f"{anchor_role}{role}",
                    events=((anchor.uid, anchor_role), (cand.uid, role)),
                    shape="ab",
                )
                after = _first_instance_after(trace, cand.uid, anchor)
                out.patterns.append(PatternInstance(sig, (anchor, after), cand.rank))
    # -- triples: atomicity violations --------------------------------------
    #
    # The opening and closing events of a single-variable atomicity
    # violation are the *adjacent* accesses of one thread around the
    # intruding access: anything of the same thread in between means the
    # "atomic section" was already over.  Enumeration is therefore
    # structural: the latest same-thread access before the anchor / the
    # earliest one after, never arbitrary pairs.
    role_of = {c.uid: _ROLE.get(c.access) for c in candidates}
    rank_of = {c.uid: c.rank for c in candidates}
    # anchor as the 3rd event: (d1*, d2, anchor) with d1* the anchoring
    # thread's latest candidate access before the anchor
    d1_star = _latest_by_thread_before(trace, candidates, anchor, anchor.tid, anchor)
    if d1_star is not None:
        first_role = role_of.get(d1_star.uid)
        for mid in candidates:
            if len(out.patterns) >= max_patterns:
                return
            mid_role = _ROLE.get(mid.access)
            if mid_role not in ("R", "W") or first_role not in ("R", "W"):
                continue
            kind = f"{first_role}{mid_role}{anchor_role}"
            if kind not in ATOMICITY_KINDS:
                continue
            out.candidates_explored += 1
            mid_inst = trace.last_instance_before(mid.uid, anchor)
            mid_inst = _distinct_thread(mid_inst, anchor)
            if mid_inst is None or not d1_star.before(mid_inst):
                continue
            sig = PatternSignature(
                kind=kind,
                events=(
                    (d1_star.uid, first_role),
                    (mid.uid, mid_role),
                    (anchor.uid, anchor_role),
                ),
                shape="aba",
            )
            out.patterns.append(
                PatternInstance(
                    sig,
                    (d1_star, mid_inst, anchor),
                    min(rank_of.get(d1_star.uid, 2), mid.rank),
                )
            )
    # anchor as the MIDDLE event (e.g. aget-style WRW: the torn read is
    # the failure; the completing write lands — or is killed — after it):
    # for each other thread, its latest access before the anchor opens
    # the pattern and its earliest write after the anchor closes it.
    for tid in sorted(trace.threads):
        if tid == anchor.tid:
            continue
        if len(out.patterns) >= max_patterns:
            return
        d1 = _latest_by_thread_before(trace, candidates, anchor, tid, anchor)
        if d1 is None:
            continue
        first_role = role_of.get(d1.uid)
        if first_role not in ("R", "W"):
            continue
        d3 = _earliest_write_after(trace, candidates, anchor, tid)
        if d3 is not None:
            third_uid, third_role, third_inst = d3
            kinds_closers = [(third_uid, third_role, third_inst)]
        else:
            # The closing write may have been killed by the fail-stop:
            # candidates that never executed in this trace qualify.
            kinds_closers = [
                (c.uid, "W", None)
                for c in candidates
                if _ROLE.get(c.access) == "W" and not trace.instances(c.uid)
            ]
        for third_uid, third_role, third_inst in kinds_closers:
            kind = f"{first_role}{anchor_role}{third_role}"
            if kind not in ATOMICITY_KINDS:
                continue
            out.candidates_explored += 1
            sig = PatternSignature(
                kind=kind,
                events=(
                    (d1.uid, first_role),
                    (anchor.uid, anchor_role),
                    (third_uid, third_role),
                ),
                shape="aba",
            )
            out.patterns.append(
                PatternInstance(
                    sig,
                    (d1, anchor, third_inst),
                    min(rank_of.get(d1.uid, 2), rank_of.get(third_uid, 2)),
                )
            )


def _latest_by_thread_before(
    trace: ProcessedTrace,
    candidates: list[RankedCandidate],
    anchor: DynamicInstruction,
    tid: int,
    exclude: DynamicInstruction,
) -> DynamicInstruction | None:
    """Thread ``tid``'s latest candidate access strictly before the anchor."""
    best: DynamicInstruction | None = None
    for cand in candidates:
        if _ROLE.get(cand.access) not in ("R", "W"):
            continue
        for d in trace.instances(cand.uid):
            if d.tid != tid or not d.before(anchor):
                continue
            if d.uid == exclude.uid and d.seq == exclude.seq and d.tid == exclude.tid:
                continue
            if best is None or best.before(d):
                best = d
    return best


def _earliest_write_after(
    trace: ProcessedTrace,
    candidates: list[RankedCandidate],
    anchor: DynamicInstruction,
    tid: int,
) -> tuple[int, str, DynamicInstruction] | None:
    best: DynamicInstruction | None = None
    for cand in candidates:
        if _ROLE.get(cand.access) != "W":
            continue
        for d in trace.instances(cand.uid):
            if d.tid != tid or not anchor.before(d):
                continue
            if best is None or d.before(best):
                best = d
    if best is None:
        return None
    return (best.uid, "W", best)


def _distinct_thread(
    inst: DynamicInstruction | None, anchor: DynamicInstruction
) -> DynamicInstruction | None:
    return inst if inst is not None and inst.tid != anchor.tid else None


def _first_instance_after(
    trace: ProcessedTrace, uid: int, anchor: DynamicInstruction
) -> DynamicInstruction | None:
    best: DynamicInstruction | None = None
    for d in trace.instances(uid):
        if anchor.before(d) and d.tid != anchor.tid and (
            best is None or d.before(best)
        ):
            best = d
    return best


# -- deadlocks ---------------------------------------------------------------


@dataclass(frozen=True)
class LockEventPair:
    """One thread's contribution to a deadlock: hold then attempt."""

    hold_uid: int
    attempt_uid: int


def compute_deadlock_patterns(
    trace: ProcessedTrace,
    ranking: RankingResult,
    cycle_uids: list[tuple[int, int]] | None = None,
    max_patterns: int = 64,
) -> PatternComputation:
    """Deadlock patterns: pairs of (hold, attempt) lock sequences that
    interleave dangerously (Figure 1a).

    ``cycle_uids`` — (tid, blocked-lock uid) pairs from the hang
    detector's report, available for the failing execution.  For
    successful executions (no report), dangerous interleavings are
    searched among the ranked lock candidates directly.
    """
    out = PatternComputation()
    lock_cands = [c for c in ranking.candidates if c.access == "lock"]
    lock_uids = {c.uid for c in lock_cands}
    unlock_uids = {c.uid for c in ranking.candidates if c.access == "unlock"}
    rank_of = {c.uid: c.rank for c in lock_cands}
    out.candidates_explored = len(lock_cands)
    by_thread: dict[int, list[DynamicInstruction]] = {}
    for uid in lock_uids | unlock_uids:
        for d in trace.instances(uid):
            by_thread.setdefault(d.tid, []).append(d)
    for instances in by_thread.values():
        instances.sort(key=lambda d: d.seq)
    # A (hold, attempt) pair is one critical-section episode: a later
    # acquisition while the first is still held.  Any unlock between
    # them ends the episode, which kills cross-iteration false pairs.
    episodes: dict[int, list[tuple[DynamicInstruction, DynamicInstruction]]] = {}
    for tid, instances in by_thread.items():
        pairs: list[tuple[DynamicInstruction, DynamicInstruction]] = []
        for i, h in enumerate(instances):
            if h.uid not in lock_uids:
                continue
            for a in instances[i + 1 :]:
                if a.uid in unlock_uids:
                    break  # episode over
                if a.uid in lock_uids:
                    pairs.append((h, a))
                    break  # nearest nested acquisition only
        episodes[tid] = pairs
    # Failing execution: the hang detector already proved the circular
    # wait — the pattern is built from the reported cycle directly (each
    # thread's blocked attempt paired with its episode's hold), without
    # needing the timing intervals to re-establish the overlap.
    if cycle_uids:
        pairs = []
        for tid, attempt_uid in cycle_uids:
            match = None
            for h, a in episodes.get(tid, ()):  # the attempt closes an episode
                if a.uid == attempt_uid:
                    match = (h, a)
            if match is None:
                break
            pairs.append(match)
        if len(pairs) == len(cycle_uids) >= 2:
            (h1, a1), (h2, a2) = pairs[0], pairs[1]
            pair1 = LockEventPair(h1.uid, a1.uid)
            pair2 = LockEventPair(h2.uid, a2.uid)
            first, second = sorted(
                [(pair1, h1, a1), (pair2, h2, a2)],
                key=lambda p: (p[0].hold_uid, p[0].attempt_uid),
            )
            sig = PatternSignature(
                kind="deadlock",
                events=(
                    (first[0].hold_uid, "L"),
                    (second[0].hold_uid, "L"),
                    (first[0].attempt_uid, "L"),
                    (second[0].attempt_uid, "L"),
                ),
                shape="abab",
            )
            rank = min(rank_of.get(h1.uid, 2), rank_of.get(h2.uid, 2))
            out.patterns.append(
                PatternInstance(
                    sig, (first[1], second[1], first[2], second[2]), rank
                )
            )
    tids = sorted(episodes)
    for i, t1 in enumerate(tids):
        for t2 in tids[i + 1 :]:
            for h1, a1 in episodes[t1]:
                    for h2, a2 in episodes[t2]:
                            if len(out.patterns) >= max_patterns:
                                return out
                            if not (h1.before(a2) and h2.before(a1)):
                                continue
                            # Each thread held its first lock before the
                            # other attempted it: the circular-wait shape.
                            pair1 = LockEventPair(h1.uid, a1.uid)
                            pair2 = LockEventPair(h2.uid, a2.uid)
                            first, second = sorted(
                                [(pair1, h1, a1), (pair2, h2, a2)],
                                key=lambda p: (p[0].hold_uid, p[0].attempt_uid),
                            )
                            sig = PatternSignature(
                                kind="deadlock",
                                events=(
                                    (first[0].hold_uid, "L"),
                                    (second[0].hold_uid, "L"),
                                    (first[0].attempt_uid, "L"),
                                    (second[0].attempt_uid, "L"),
                                ),
                                shape="abab",
                            )
                            rank = min(
                                rank_of.get(h1.uid, 2),
                                rank_of.get(h2.uid, 2),
                            )
                            out.patterns.append(
                                PatternInstance(
                                    sig, (first[1], second[1], first[2], second[2]), rank
                                )
                            )
    return out


def synthesize_blocked_attempts(
    trace: ProcessedTrace,
    module: Module,
    cycle: list[tuple[int, int, int]],
) -> None:
    """Inject the blocked lock attempts of a deadlock into the trace.

    ``cycle`` holds (tid, instr uid, block time) from the failure
    report.  Blocked acquisitions never complete, so the decoder stops
    right before them; their context-switch timestamps give them exact
    dynamic instances, which is what lets pattern computation order the
    attempts (the dT of Table 1).
    """
    for tid, uid, since in cycle:
        already = any(d.tid == tid and d.uid == uid for d in trace.instances(uid))
        if already:
            continue
        # synthesize registers the blocked thread (its own trace may be
        # desynced) and files the attempt in (t_lo, seq) order.
        trace.synthesize(uid, tid, since)
