"""Trace processing (partial order) and bug pattern computation."""

from repro.core.patterns import compute_crash_patterns
from repro.core.trace_processing import ProcessedTrace, attach_anchor, process_snapshot
from repro.core.type_ranking import RankedCandidate, RankingResult
from repro.pt.decoder import DynamicInstruction, ThreadTrace


def _dyn(uid, tid, seq, lo, hi):
    return DynamicInstruction(uid, tid, seq, lo, hi)


def test_partial_order_semantics():
    a = _dyn(1, 1, 0, 100, 200)
    b = _dyn(2, 2, 0, 300, 400)
    c = _dyn(3, 2, 1, 150, 250)  # overlaps a
    assert a.before(b) and not b.before(a)
    assert not a.before(c) and not c.before(a)  # concurrent
    # same-thread instructions order by sequence even when overlapping
    assert c.before(b) or b.seq < c.seq


def test_process_snapshot_merges_threads():
    t1 = ThreadTrace(1, runs=[((10,), 0, 50, 0), ((11,), 60, 90, 1)])
    t1.executed_uids = {10, 11}
    t1.end_time = 100
    t2 = ThreadTrace(2, runs=[((10,), 200, 260, 0)])
    t2.executed_uids = {10}
    t2.end_time = 300
    pt = process_snapshot("x", {1: t1, 2: t2}, failing=False)
    assert pt.executed_uids == {10, 11}
    assert len(pt.instances(10)) == 2
    assert pt.threads == {1, 2}
    assert pt.snapshot_time == 300


def test_attach_anchor_prefers_decoded_instance():
    t1 = ThreadTrace(1, runs=[((10,), 0, 50, 0)])
    t1.executed_uids = {10}
    t1.end_time = 100
    pt = process_snapshot("x", {1: t1}, failing=True)
    anchor = attach_anchor(pt, 10, 1, 999, prefer_decoded=True)
    assert anchor.t_hi == 50  # the decoded instance, not a synthetic one


def test_attach_anchor_synthesizes_at_failure_time():
    t1 = ThreadTrace(1, runs=[((10,), 0, 50, 0)])
    t1.executed_uids = {10}
    t1.end_time = 100
    pt = process_snapshot("x", {1: t1}, failing=True)
    anchor = attach_anchor(pt, 99, 1, 777, prefer_decoded=False)
    assert anchor.uid == 99
    assert anchor.t_lo == anchor.t_hi == 777
    assert 99 in pt.executed_uids


def _ranking(module_like_candidates):
    r = RankingResult(failing_uid=0, operand_type=None)
    r.candidates = module_like_candidates
    return r


class _FakeInstr:
    def __init__(self, uid):
        self.uid = uid


def _cand(uid, access, rank=1, objs=frozenset({"obj"})):
    return RankedCandidate(_FakeInstr(uid), rank, access, objs)


def _trace_with(instances, anchor):
    pt = ProcessedTrace("t", failing=True)
    for d in instances:
        pt.add_instance(d)
    pt.anchors.append(anchor)
    pt.anchor = anchor
    if anchor not in pt.dynamic:
        pt.add_instance(anchor)
    return pt


def test_wr_pair_found():
    anchor = _dyn(20, 2, 0, 1000, 1000)
    write = _dyn(10, 1, 0, 100, 200)
    pt = _trace_with([write], anchor)
    comp = compute_crash_patterns(
        pt, _ranking([_cand(10, "write")]), "R", anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    kinds = {p.signature.kind for p in comp.patterns}
    assert "WR" in kinds
    wr = next(p for p in comp.patterns if p.signature.kind == "WR")
    assert wr.signature.events == ((10, "W"), (20, "R"))


def test_rw_pair_when_write_never_ran():
    anchor = _dyn(20, 2, 0, 1000, 1000)
    pt = _trace_with([], anchor)
    comp = compute_crash_patterns(
        pt, _ranking([_cand(10, "write")]), "R", anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    kinds = {p.signature.kind for p in comp.patterns}
    assert "RW" in kinds  # the fail-stop killed the writer


def test_alias_filter_excludes_unrelated_candidates():
    anchor = _dyn(20, 2, 0, 1000, 1000)
    write = _dyn(10, 1, 0, 100, 200)
    pt = _trace_with([write], anchor)
    comp = compute_crash_patterns(
        pt,
        _ranking([_cand(10, "write", objs=frozenset({"elsewhere"}))]),
        "R",
        anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    assert comp.patterns == []


def test_atomicity_triple_anchor_last():
    # T2: R1 ... T1: W ... T2: R2(anchor) -> RWR
    r1 = _dyn(30, 2, 0, 100, 150)
    w = _dyn(10, 1, 0, 300, 350)
    anchor = _dyn(31, 2, 1, 500, 500)
    pt = _trace_with([r1, w], anchor)
    comp = compute_crash_patterns(
        pt,
        _ranking([_cand(10, "write"), _cand(30, "read"), _cand(31, "read")]),
        "R",
        anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    kinds = {p.signature.kind for p in comp.patterns}
    assert "RWR" in kinds
    rwr = next(p for p in comp.patterns if p.signature.kind == "RWR")
    assert rwr.signature.events == ((30, "R"), (10, "W"), (31, "R"))


def test_atomicity_opening_event_must_be_adjacent():
    # T2: R1, then T2: W_own, then T1: W, then anchor -> R1 is no longer
    # the open access; the pattern opens at W_own instead
    r1 = _dyn(30, 2, 0, 100, 150)
    w_own = _dyn(32, 2, 1, 200, 220)
    w = _dyn(10, 1, 0, 300, 350)
    anchor = _dyn(31, 2, 2, 500, 500)
    pt = _trace_with([r1, w_own, w], anchor)
    comp = compute_crash_patterns(
        pt,
        _ranking(
            [_cand(10, "write"), _cand(30, "read"), _cand(31, "read"), _cand(32, "write")]
        ),
        "R",
        anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    rwrs = [p for p in comp.patterns if p.signature.kind == "RWR"]
    assert all(p.signature.events[0][0] != 30 for p in rwrs)
    wwrs = [p for p in comp.patterns if p.signature.kind == "WWR"]
    assert any(p.signature.events[0][0] == 32 for p in wwrs)


def test_anchor_middle_wrw():
    # T1: W1 ... T2: R(anchor) ... T1: W2 -> WRW with anchor mid-pattern
    w1 = _dyn(10, 1, 0, 100, 150)
    anchor = _dyn(30, 2, 0, 300, 320)
    w2 = _dyn(11, 1, 1, 500, 550)
    pt = _trace_with([w1, w2], anchor)
    comp = compute_crash_patterns(
        pt,
        _ranking([_cand(10, "write"), _cand(11, "write"), _cand(30, "read")]),
        "R",
        anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    kinds = {p.signature.kind for p in comp.patterns}
    assert "WRW" in kinds
    wrw = next(p for p in comp.patterns if p.signature.kind == "WRW")
    assert wrw.signature.events == ((10, "W"), (30, "R"), (11, "W"))


def test_gaps_computed_from_instances():
    anchor = _dyn(20, 2, 0, 1000, 1000)
    write = _dyn(10, 1, 0, 100, 200)
    pt = _trace_with([write], anchor)
    comp = compute_crash_patterns(
        pt, _ranking([_cand(10, "write")]), "R", anchor=anchor,
        anchor_objects=frozenset({"obj"}),
    )
    wr = next(p for p in comp.patterns if p.signature.kind == "WR")
    assert wr.gaps() == [800]  # 1000 - 200
