"""Lazy per-uid expansion against the eager build it replaced.

``process_snapshot`` keeps each decoded thread as run records and
``ProcessedTrace.instances(uid)`` expands one uid on demand.  These
tests rebuild, from the expanded ``ThreadTrace.instructions``, what the
eager build made: every decoded instance filed under its uid, each
bucket sorted by ``(t_lo, seq)``, and each synthesized instance
numbered ``1 + max(seq)`` over its thread's instances so far.  On real
snapshots of every corpus bug the lazy trace must answer the same.
"""

import copy

import pytest

from repro.check.invariants import check_processed_trace
from repro.core.cache import DecodedTraceCache
from repro.core.patterns import synthesize_blocked_attempts
from repro.core.trace_processing import attach_anchor, process_snapshot
from repro.corpus import all_bugs
from repro.pt.decoder import DynamicInstruction
from repro.runtime.client import SnorlaxClient
from repro.sim.failures import DeadlockReport

STEP8_SEED = 10_000


def _order(d):
    return (d.t_lo, d.seq)


class _Eager:
    """The eager build: every instance, filed and numbered up front."""

    def __init__(self, thread_traces):
        self.dynamic = [
            d
            for trace in thread_traces.values()
            if not trace.desync
            for d in trace.instructions
        ]
        self.by_uid = {}
        for d in self.dynamic:
            self.by_uid.setdefault(d.uid, []).append(d)
        for bucket in self.by_uid.values():
            bucket.sort(key=_order)

    def next_seq(self, tid):
        return 1 + max((d.seq for d in self.dynamic if d.tid == tid), default=-1)

    def add(self, d):
        self.dynamic.append(d)
        bucket = self.by_uid.setdefault(d.uid, [])
        bucket.append(d)
        bucket.sort(key=_order)


def _runs(spec):
    """The bug's first failing run and its first step-8 run."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    (failing,) = client.find_runs(True, 1, start_seed=0)
    step8 = client.run_once(
        STEP8_SEED, breakpoint_uids=(failing.failure.failing_uid,)
    )
    return module, failing, step8


def _cycle(run):
    report = run.failure.report if run.failure else None
    if not isinstance(report, DeadlockReport):
        return []
    return [(e.tid, e.instr_uid, e.since) for e in report.cycle]


@pytest.mark.parametrize(
    "spec", all_bugs(), ids=lambda s: s.bug_id.replace("/", "_")
)
def test_instances_match_the_eager_build(spec):
    module, failing, step8 = _runs(spec)
    failing_uid = failing.failure.failing_uid
    checked = 0
    for run in (failing, step8):
        if run.snapshot is None:
            continue
        traces = run.snapshot.decode(module)
        eager = _Eager(traces)
        pt = process_snapshot("x", traces, run.failed)
        assert pt.executed_uids == set(eager.by_uid)
        for uid in sorted(pt.executed_uids):
            assert pt.instances(uid) == eager.by_uid[uid], uid

        # blocked lock attempts (deadlocks), numbered after each thread
        cycle = _cycle(run)
        expected = []
        for tid, uid, since in cycle:
            if any(d.tid == tid for d in eager.by_uid.get(uid, ())):
                continue
            d = DynamicInstruction(uid, tid, eager.next_seq(tid), since, since)
            eager.add(d)
            expected.append(d)
        synthesize_blocked_attempts(pt, module, cycle)
        for d in expected:
            assert d in pt.instances(d.uid)

        # one synthesized anchor per thread, plus one on a fresh thread
        for tid in [*sorted(pt.threads), max(pt.threads, default=0) + 1]:
            seq = eager.next_seq(tid)
            anchor = attach_anchor(
                pt, failing_uid, tid, run.snapshot.time, prefer_decoded=False
            )
            assert anchor.seq == seq
            eager.add(anchor)

        assert pt.dynamic == eager.dynamic
        for uid in pt.executed_uids:
            assert pt.instances(uid) == eager.by_uid[uid]
        check_processed_trace(pt, traces)
        checked += 1
    assert checked


def test_shared_cached_traces_stay_read_only():
    spec = next(s for s in all_bugs() if s.bug_id == "dbcp-44")
    module, failing, _ = _runs(spec)
    cycle = _cycle(failing)
    assert cycle
    snap = failing.snapshot
    cache = DecodedTraceCache()
    traces = {
        tid: cache.get_or_decode(module, data, tid, snap.mtc_period_ns)
        for tid, data in snap.buffers.items()
    }
    before = copy.deepcopy(traces)
    answers = []
    for _ in range(2):
        again = {
            tid: cache.get_or_decode(module, data, tid, snap.mtc_period_ns)
            for tid, data in snap.buffers.items()
        }
        assert all(again[tid] is traces[tid] for tid in traces)
        pt = process_snapshot(
            "failure", again, True,
            anchor_uid=failing.failure.failing_uid,
            anchor_tid=failing.failure.failing_tid,
            anchor_time=failing.failure.time,
        )
        synthesize_blocked_attempts(pt, module, cycle)
        for tid in sorted(pt.threads):
            attach_anchor(pt, cycle[0][1], tid, snap.time, prefer_decoded=True)
        answers.append({uid: pt.instances(uid) for uid in pt.executed_uids})
    assert traces == before
    assert answers[0] == answers[1]
