"""Regressions the repro.check harness was built to catch (steps 2-3, 7).

Each test pins one of the latent bugs the differential/invariant
fuzzing surfaced: anchor bookkeeping in ``process_snapshot`` and
example selection in ``score_patterns``.  The jobs-queue counterpart
lives in ``tests/fleet/test_jobs.py``.
"""

from repro.core.patterns import PatternInstance, PatternSignature
from repro.core.statistics import observe, score_patterns
from repro.core.trace_processing import attach_anchor, process_snapshot
from repro.pt.decoder import ThreadTrace


def _thread(tid, runs, desync=False):
    """A decoded thread from run records ``(uids, t_lo, t_hi, seq0)``."""
    return ThreadTrace(
        tid,
        runs=list(runs),
        executed_uids={uid for uids, *_ in runs for uid in uids},
        end_time=max((t_hi for _, _, t_hi, _ in runs), default=0),
        desync=desync,
    )


# -- process_snapshot anchor bookkeeping (fix: registration + ordering) -----


def test_anchor_registers_fully_desynced_thread():
    # The anchoring thread lost sync (no PSB): its trace decodes to
    # nothing, so the anchor is that thread's only dynamic evidence.
    # It must still land in threads / executed_uids / by_uid.
    traces = {
        1: _thread(1, [((10,), 0, 50, 0), ((11,), 60, 90, 1)]),
        2: _thread(2, [((10,), 100, 160, 0)], desync=True),
    }
    pt = process_snapshot(
        "x", traces, failing=True,
        anchor_uid=99, anchor_tid=2, anchor_time=170,
    )
    assert 2 in pt.threads
    assert 99 in pt.executed_uids
    assert pt.anchor in pt.instances(99)


def test_anchor_merges_into_uid_bucket_in_order():
    # An anchor timestamped before decoded instances of the same uid
    # must not break the per-uid (t_lo, seq) order instances() promises.
    traces = {
        1: _thread(1, [((10,), 500, 550, 0), ((10,), 600, 640, 1)]),
    }
    pt = process_snapshot(
        "x", traces, failing=True,
        anchor_uid=10, anchor_tid=2, anchor_time=100,
    )
    bucket = pt.instances(10)
    assert len(bucket) == 3
    assert bucket == sorted(bucket, key=lambda d: (d.t_lo, d.seq))
    assert bucket[0] is pt.anchor


def test_attach_anchor_synthesized_keeps_bucket_sorted():
    # Same ordering discipline on the operand-recovery path: a
    # synthesized anchor earlier than the decoded instances must sort
    # into place, so the "last instance" pick stays correct afterwards.
    traces = {
        1: _thread(1, [((10,), 400, 450, 0)]),
    }
    pt = process_snapshot("x", traces, failing=True)
    attach_anchor(pt, 10, 2, 50, prefer_decoded=False)
    bucket = pt.instances(10)
    assert bucket == sorted(bucket, key=lambda d: (d.t_lo, d.seq))
    # and a later prefer_decoded pick still returns the true latest
    picked = attach_anchor(pt, 10, 1, 999, prefer_decoded=True)
    assert (picked.t_lo, picked.seq) == (400, 0)


# -- score_patterns example selection (fix: dead loop, rank sentinel) -------


def _obs_with_rank(label, failing, sig, rank):
    class _Comp:
        patterns = [PatternInstance(sig, (None,) * len(sig.events), rank)]

    return observe(label, failing, _Comp())


def test_scored_rank_is_true_minimum_across_observations():
    sig = PatternSignature("WR", ((10, "W"), (20, "R")), "ab")
    obs = [
        _obs_with_rank("fail-0", True, sig, 4),
        _obs_with_rank("ok-0", False, sig, 1),
    ]
    [scored] = score_patterns(obs)
    # the old sentinel (best_rank = 3) clamped ranks above 3 and the
    # dead selection loop never honored the minimum
    assert scored.rank == 1


def test_example_prefers_failing_then_best_rank():
    sig = PatternSignature("WR", ((10, "W"), (20, "R")), "ab")
    fail_worse = _obs_with_rank("fail-0", True, sig, 3)
    fail_better = _obs_with_rank("fail-1", True, sig, 2)
    ok_best = _obs_with_rank("ok-0", False, sig, 1)
    [scored] = score_patterns([fail_worse, fail_better, ok_best])
    # prefer a failing-run witness even when a success run has a better
    # rank, but among failing runs honor the rank
    assert scored.example is fail_better.instances[sig]
    assert scored.rank == 1  # the global minimum is still reported
