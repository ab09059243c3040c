"""The oracle layer: what must be true of every stage's artifacts.

Each ``check_*`` function takes real pipeline artifacts and raises
:class:`InvariantViolation` naming the broken invariant.  The oracles
are deliberately *independent re-derivations* — ``ref_before`` re-states
the partial order from the paper's definition instead of calling
``DynamicInstruction.before``, score recomputation re-counts supports
from the raw observations instead of trusting ``ScoredPattern`` — so a
bug in the production code cannot hide in a shared helper.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.andersen import AndersenResult, solve_naive
from repro.core.constraints import ConstraintSystem
from repro.core.statistics import (
    ExecutionObservation,
    ScoredPattern,
)
from repro.core.steensgaard import solve as steensgaard_solve
from repro.core.trace_processing import ProcessedTrace
from repro.pt.decoder import DynamicInstruction, ThreadTrace


class InvariantViolation(AssertionError):
    """A named pipeline invariant does not hold on a real artifact."""

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"[{invariant}] {message}")


def _violate(invariant: str, message: str) -> None:
    raise InvariantViolation(invariant, message)


# -- partial order (paper §4.1) ----------------------------------------------


def ref_before(a: DynamicInstruction, b: DynamicInstruction) -> bool:
    """Independent restatement of the §4.1 partial order: same-thread
    instructions follow program (decode) order; cross-thread ones are
    ordered iff their time intervals are disjoint."""
    if a.tid == b.tid:
        return a.seq < b.seq
    return a.t_hi <= b.t_lo


def _degenerate_pair(a: DynamicInstruction, b: DynamicInstruction) -> bool:
    """Two zero-width instants at the same timestamp: the ``[t, t)``
    degenerate intervals that synthesized anchors / blocked lock
    attempts produce.  ``before`` holds both ways for them — the one
    carve-out from antisymmetry."""
    return a.t_lo == a.t_hi == b.t_lo == b.t_hi


def check_partial_order(
    dynamic: Sequence[DynamicInstruction],
    rng: random.Random | None = None,
    sample_pairs: int = 500,
) -> None:
    """Interval sanity, ``before`` ≡ the reference order, antisymmetry
    (modulo degenerate equal instants), and symmetric concurrency."""
    for d in dynamic:
        if d.t_lo > d.t_hi:
            _violate(
                "interval-sane",
                f"uid={d.uid} tid={d.tid}: t_lo={d.t_lo} > t_hi={d.t_hi}",
            )
    seen: set[tuple[int, int]] = set()
    for d in dynamic:
        key = (d.tid, d.seq)
        if key in seen:
            _violate(
                "seq-unique", f"duplicate (tid={d.tid}, seq={d.seq}) instance"
            )
        seen.add(key)
    n = len(dynamic)
    if n < 2:
        return
    pairs: Iterable[tuple[int, int]]
    if rng is None or n * (n - 1) // 2 <= sample_pairs:
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    else:
        pairs = (
            (rng.randrange(n), rng.randrange(n)) for _ in range(sample_pairs)
        )
    for i, j in pairs:
        a, b = dynamic[i], dynamic[j]
        if a is b:
            continue
        ab, ba = a.before(b), b.before(a)
        if ab != ref_before(a, b) or ba != ref_before(b, a):
            _violate(
                "order-matches-reference",
                f"before() disagrees with the §4.1 definition for "
                f"({a.uid}@{a.tid}, {b.uid}@{b.tid})",
            )
        if ab and ba and not _degenerate_pair(a, b):
            _violate(
                "order-antisymmetric",
                f"both orders hold for uid={a.uid}@tid={a.tid} "
                f"[{a.t_lo},{a.t_hi}) and uid={b.uid}@tid={b.tid} "
                f"[{b.t_lo},{b.t_hi})",
            )


# -- processed traces (steps 2-3) --------------------------------------------


def check_processed_trace(
    trace: ProcessedTrace,
    thread_traces: dict[int, ThreadTrace] | None = None,
    rng: random.Random | None = None,
) -> None:
    """Structural invariants of a :class:`ProcessedTrace`.

    * every dynamic instruction's thread is registered in ``threads``
      (the anchor's too — even when its thread's trace was desynced);
    * ``executed_uids`` ⊇ the uids of the dynamic trace (and of every
      non-desynced input thread trace, when given);
    * ``by_uid`` partitions ``dynamic`` exactly, each bucket sorted by
      ``(t_lo, seq)`` — the order ``instances()`` consumers rely on.
      ``dynamic`` expands the run records on its own and reuses a
      bucket's object only for an equal value, so this also checks
      that the lazy per-uid expansion lost, added and changed nothing;
    * the anchor(s), when set, are members of the dynamic trace;
    * the partial order is sane (see :func:`check_partial_order`).
    """
    dynamic_tids = {d.tid for d in trace.dynamic}
    missing_tids = dynamic_tids - trace.threads
    if missing_tids:
        _violate(
            "threads-cover-dynamic",
            f"tids {sorted(missing_tids)} appear in the dynamic trace but "
            f"not in threads={sorted(trace.threads)}",
        )
    dynamic_uids = {d.uid for d in trace.dynamic}
    missing_uids = dynamic_uids - trace.executed_uids
    if missing_uids:
        _violate(
            "executed-covers-dynamic",
            f"uids {sorted(missing_uids)} appear in the dynamic trace but "
            f"not in executed_uids",
        )
    if thread_traces is not None:
        for tid, tt in thread_traces.items():
            if tt.desync:
                continue
            missing = tt.executed_uids - trace.executed_uids
            if missing:
                _violate(
                    "executed-covers-inputs",
                    f"thread {tid}: decoded uids {sorted(missing)[:8]} "
                    f"missing from executed_uids",
                )
    by_uid_members: list[DynamicInstruction] = []
    for uid, bucket in trace.by_uid.items():
        for d in bucket:
            if d.uid != uid:
                _violate(
                    "by-uid-keyed",
                    f"instance uid={d.uid} filed under by_uid[{uid}]",
                )
        by_uid_members.extend(bucket)
        keys = [(d.t_lo, d.seq) for d in bucket]
        if keys != sorted(keys):
            _violate(
                "by-uid-sorted",
                f"by_uid[{uid}] not sorted by (t_lo, seq): {keys}",
            )
    if len(by_uid_members) != len(trace.dynamic) or {
        id(d) for d in by_uid_members
    } != {id(d) for d in trace.dynamic}:
        _violate(
            "by-uid-partitions-dynamic",
            f"by_uid holds {len(by_uid_members)} instances, dynamic holds "
            f"{len(trace.dynamic)}",
        )
    dynamic_ids = {id(d) for d in trace.dynamic}
    for anchor in [trace.anchor, *trace.anchors]:
        if anchor is not None and id(anchor) not in dynamic_ids:
            _violate(
                "anchor-in-dynamic",
                f"anchor uid={anchor.uid} tid={anchor.tid} is not part of "
                f"the dynamic trace",
            )
    check_partial_order(trace.dynamic, rng=rng)


# -- points-to (step 4) ------------------------------------------------------


def _query_nodes(system: ConstraintSystem) -> set:
    nodes = set(system.addr_of)
    for dst, src in system.copies:
        nodes.add(dst)
        nodes.add(src)
    for dst, src in system.loads:
        nodes.add(dst)
        nodes.add(src)
    for dst, src in system.stores:
        nodes.add(dst)
        nodes.add(src)
    return nodes


def check_andersen_equivalence(
    system: ConstraintSystem, optimized: AndersenResult
) -> None:
    """The SCC-collapsing/delta solver computes the same points-to sets
    as the textbook worklist solver, value-for-value and object
    contents-for-contents."""
    naive = solve_naive(system)
    for node in _query_nodes(system):
        a, b = optimized.points_to(node), naive.points_to(node)
        if a != b:
            _violate(
                "andersen-optimized-equals-naive",
                f"pts({node}) differs: optimized={sorted(map(str, a))} "
                f"naive={sorted(map(str, b))}",
            )
    for obj in system.objects.values():
        a, b = optimized.contents_of(obj), naive.contents_of(obj)
        if a != b:
            _violate(
                "andersen-contents-equal",
                f"contents({obj}) differs: optimized={sorted(map(str, a))} "
                f"naive={sorted(map(str, b))}",
            )


def check_steensgaard_superset(
    system: ConstraintSystem, andersen: AndersenResult
) -> None:
    """Unification is coarser than inclusion: every Andersen points-to
    set must be contained in the Steensgaard set for the same value."""
    steens = steensgaard_solve(system)
    for node in _query_nodes(system):
        a = andersen.points_to(node)
        if not a:
            continue
        s = steens.points_to(node)
        if not a <= s:
            _violate(
                "andersen-within-steensgaard",
                f"pts({node}): andersen={sorted(map(str, a))} not within "
                f"steensgaard={sorted(map(str, s))}",
            )


# -- statistical diagnosis (step 7) ------------------------------------------


def check_scores(
    observations: list[ExecutionObservation], scored: list[ScoredPattern]
) -> None:
    """Every F1 score is recomputable from the raw observations, ranks
    are true minima, and the example honors failing-run preference then
    rank.  Mirrors the documented semantics of ``score_patterns``."""
    failing_total = sum(1 for o in observations if o.failing)
    if failing_total == 0:
        if scored:
            _violate(
                "scores-need-failures",
                f"{len(scored)} patterns scored with zero failing runs",
            )
        return
    all_sigs = {sig for o in observations for sig in o.signatures}
    scored_sigs = {s.signature for s in scored}
    if scored_sigs != all_sigs:
        _violate(
            "scores-cover-signatures",
            f"scored {len(scored_sigs)} signatures, observations exhibit "
            f"{len(all_sigs)}",
        )
    for s in scored:
        sig = s.signature
        fail_support = sum(
            1 for o in observations if o.failing and sig in o.signatures
        )
        ok_support = sum(
            1 for o in observations if not o.failing and sig in o.signatures
        )
        present = fail_support + ok_support
        precision = fail_support / present if present else 0.0
        recall = fail_support / failing_total
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        for name, got, want in (
            ("failing_support", s.failing_support, fail_support),
            ("success_support", s.success_support, ok_support),
        ):
            if got != want:
                _violate(
                    "support-recount",
                    f"{sig}: {name}={got}, raw observations say {want}",
                )
        for name, got, want in (
            ("precision", s.precision, precision),
            ("recall", s.recall, recall),
            ("f1", s.f1, f1),
        ):
            if abs(got - want) > 1e-9:
                _violate(
                    "f1-recomputable",
                    f"{sig}: {name}={got!r}, recomputed {want!r}",
                )
        witnesses = [
            (o, o.instances[sig]) for o in observations if sig in o.instances
        ]
        if witnesses:
            true_rank = min(inst.rank for _, inst in witnesses)
            if s.rank != true_rank:
                _violate(
                    "rank-is-minimum",
                    f"{sig}: rank={s.rank}, true minimum over "
                    f"{len(witnesses)} instances is {true_rank}",
                )
            if s.example is None:
                _violate("example-present", f"{sig}: no example selected")
            failing_w = [
                inst for o, inst in witnesses if o.failing
            ]
            if failing_w:
                if not any(s.example is inst for inst in failing_w):
                    _violate(
                        "example-prefers-failing",
                        f"{sig}: example comes from a successful run while "
                        f"{len(failing_w)} failing instances exist",
                    )
                best = min(inst.rank for inst in failing_w)
                if s.example.rank != best:
                    _violate(
                        "example-honors-rank",
                        f"{sig}: example rank={s.example.rank}, best "
                        f"failing-run rank is {best}",
                    )
            else:
                if s.example.rank != true_rank:
                    _violate(
                        "example-honors-rank",
                        f"{sig}: example rank={s.example.rank}, best "
                        f"rank is {true_rank}",
                    )
    keys = [
        (-s.f1, len(s.signature.events), s.rank, -s.failing_support,
         str(s.signature))
        for s in scored
    ]
    if keys != sorted(keys):
        _violate(
            "scores-sorted",
            "scored patterns are not in (F1, simplicity, rank, support) "
            "order",
        )


# -- reports and digests -----------------------------------------------------


def check_report_sanity(report) -> None:
    """Cheap report-level invariants at the end of every diagnosis."""
    root = report.root_cause
    if report.diagnosed != (root is not None):
        _violate(
            "diagnosed-iff-root",
            f"diagnosed={report.diagnosed} but root_cause={root}",
        )
    if root is not None:
        for name, v in (
            ("f1", root.f1), ("precision", root.precision),
            ("recall", root.recall),
        ):
            if not 0.0 <= v <= 1.0:
                _violate("score-bounded", f"root {name}={v} outside [0, 1]")
        if root.f1 <= 0.0:
            _violate(
                "root-correlates",
                "a root cause was reported with F1 == 0",
            )
        if len(report.target_events) != len(root.signature.events):
            _violate(
                "targets-match-signature",
                f"{len(report.target_events)} target events for a "
                f"{len(root.signature.events)}-event signature",
            )


def check_digest_match(a: dict, b: dict, context: str) -> None:
    """Two report digests (cache-on/off, fleet/in-process) must agree."""
    if a == b:
        return
    keys = sorted(set(a) | set(b))
    diffs = [k for k in keys if a.get(k) != b.get(k)]
    detail = "; ".join(
        f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in diffs[:3]
    )
    _violate("digest-deterministic", f"{context}: digests differ on {detail}")
