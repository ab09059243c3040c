"""Directed scheduling (repro.validate's substrate) and pick fairness.

The DirectedScheduler must be able to *force* a diagnosed order onto a
seed that normally avoids it, and to *forbid* the order on a seed that
normally hits it — without hanging when the directive is unsatisfiable.
Plus the round-robin fairness regression: ``Scheduler.pick`` must resume
from the successor position when ``_last`` left the runnable set, not
restart at ``ordered[0]``.  And the wake regression: a round whose gate
holds every runnable thread must not force-release one while a thread
the same round just woke could run instead.
"""

import pytest

from repro.ir import parse_module
from repro.ir.instructions import Free, Load, Store
from repro.sim import (
    DirectedScheduler,
    ForceOrder,
    Machine,
    RandomScheduler,
    Scheduler,
    SerializeAfter,
    SerializeFunction,
)

# use-after-free race: main frees %x while worker may still read it
# through @g (published before the spawn, so %p is never null)
UAF = """
module t
global g: ptr<i64> = null

func worker() -> void {
entry:
  %p = load @g
  %v = load %p
  ret
}

func main() -> void {
entry:
  %x = malloc i64
  store 42, %x
  store %x, @g
  %t = spawn @worker()
  free %x
  join %t
  ret
}
"""

# symmetric double free: both killers can load the same non-null @g
DOUBLE_FREE = """
module t
global g: ptr<i64> = null

func killer() -> void {
entry:
  %p = load @g
  %c = cmp ne %p, null
  cbr %c, doit, out
doit:
  free %p
  store null, @g
  br out
out:
  ret
}

func main() -> void {
entry:
  %x = malloc i64
  store %x, @g
  %t1 = spawn @killer()
  %t2 = spawn @killer()
  join %t1
  join %t2
  ret
}
"""


def _uaf_uids(module):
    free_uid = next(
        i.uid
        for i in module.functions["main"].instructions()
        if isinstance(i, Free)
    )
    use_uid = next(
        i.uid
        for i in module.functions["worker"].instructions()
        if isinstance(i, Load) and i.name == "v"
    )
    return free_uid, use_uid


def _scan_seeds(src, n=60):
    """Map seed -> outcome under the free-running RandomScheduler."""
    module = parse_module(src)
    outcomes = {}
    for seed in range(n):
        m = Machine(parse_module(src), scheduler=RandomScheduler(seed))
        outcomes[seed] = m.run("main", ()).outcome
    return module, outcomes


def _directed(src, seed, directive, mean_quantum=24):
    module = parse_module(src)
    sched = DirectedScheduler(seed, directive, mean_quantum)
    result = Machine(module, scheduler=sched).run("main", ())
    return module, result, sched


def test_force_order_reproduces_on_a_benign_seed():
    module, outcomes = _scan_seeds(UAF)
    benign = next(s for s, o in outcomes.items() if o == "success")
    free_uid, use_uid = _uaf_uids(module)
    _, result, sched = _directed(UAF, benign, ForceOrder((free_uid, use_uid)))
    assert result.outcome == "crash"
    assert result.failure.failing_uid == use_uid
    assert sched.satisfied
    assert sched.releases == 0


def test_force_order_prevents_on_a_failing_seed():
    module, outcomes = _scan_seeds(UAF)
    failing = next(s for s, o in outcomes.items() if o == "crash")
    free_uid, use_uid = _uaf_uids(module)
    _, result, sched = _directed(UAF, failing, ForceOrder((use_uid, free_uid)))
    assert result.outcome == "success"
    assert sched.satisfied


@pytest.mark.parametrize("mean_quantum", [1, 24, 200])
def test_force_order_holds_through_long_quanta(mean_quantum):
    # regression for the barrier_uids hook: a geometric quantum (up to
    # 16x the mean) must not blow *through* a gated uid between
    # filter_runnable rounds — every quantum truncates at a barrier
    module, outcomes = _scan_seeds(UAF)
    free_uid, use_uid = _uaf_uids(module)
    for seed, _outcome in list(outcomes.items())[:20]:
        _, result, sched = _directed(
            UAF, seed, ForceOrder((free_uid, use_uid)), mean_quantum
        )
        assert result.outcome == "crash", seed
        assert result.failure.failing_uid == use_uid
        assert sched.satisfied


def test_serialize_after_prevents_the_race():
    module, outcomes = _scan_seeds(UAF)
    failing = [s for s, o in outcomes.items() if o == "crash"]
    assert failing, "the UAF module never failed in the scan"
    free_uid, _use_uid = _uaf_uids(module)
    for seed in failing[:10]:
        _, result, _ = _directed(
            UAF, seed, SerializeAfter(free_uid, frozenset({"worker"}))
        )
        assert result.outcome == "success", seed


def test_serialize_function_prevents_symmetric_race():
    module, outcomes = _scan_seeds(DOUBLE_FREE)
    failing = [s for s, o in outcomes.items() if o != "success"]
    assert failing, "the double-free module never failed in the scan"
    for seed in failing[:10]:
        _, result, _ = _directed(
            DOUBLE_FREE, seed, SerializeFunction("killer")
        )
        assert result.outcome == "success", seed


def test_unsatisfiable_order_degrades_to_a_free_run():
    # forcing free before the publishing store is impossible (both in
    # main, program order store -> free): force_release must unwedge the
    # machine instead of hanging, leaving the order unsatisfied
    module = parse_module(UAF)
    free_uid, _ = _uaf_uids(module)
    store_uid = module.functions["main"].entry.instructions[2].uid
    _, result, sched = _directed(UAF, 0, ForceOrder((free_uid, store_uid)))
    assert result.outcome in ("success", "crash")  # finished, either way
    assert sched.releases > 0
    assert not sched.satisfied


# the rival sleeps while main works; main's quantum crosses the rival's
# wake time and stops at the gated load, so the round that holds main is
# the round whose wake makes the rival runnable again
WAKE_IN_HELD_ROUND = """
module t
global g: i64 = 0

func worker() -> void {
entry:
  delay 100
  store 1, @g
  ret
}

func main() -> void {
entry:
  %t = spawn @worker()
  delay 1
  %a = malloc i64
  %b = malloc i64
  %c = malloc i64
  %d = malloc i64
  %v = load @g
  join %t
  ret
}
"""


@pytest.mark.parametrize("mean_quantum", [24, 1000, 100_000])
def test_rival_woken_in_the_held_round_runs_before_a_release(mean_quantum):
    # regression: the gated round read its runnable list before waking
    # sleepers, saw no sleeper left, and force-released main although
    # the just-woken worker could run its gated store
    module = parse_module(WAKE_IN_HELD_ROUND)
    store_uid = next(
        i.uid for i in module.functions["worker"].instructions() if isinstance(i, Store)
    )
    load_uid = next(
        i.uid for i in module.functions["main"].instructions() if isinstance(i, Load)
    )
    for seed in range(20):
        _, result, sched = _directed(
            WAKE_IN_HELD_ROUND, seed, ForceOrder((store_uid, load_uid)), mean_quantum
        )
        assert result.outcome == "success", seed
        assert sched.satisfied, seed
        assert sched.releases == 0, seed


def test_self_check_case_730302047_validates():
    # the self-check case that exposed the bug above: an injected RWW
    # bug whose inverse replay ran the failing order after a release
    from repro.check.cases import CheckCase
    from repro.check.stages import STAGES, run_validate

    case = CheckCase("validate", 730302047, dict(STAGES["validate"].defaults))
    run_validate(case)  # raises InvariantViolation if it does not validate


def test_directed_free_run_matches_random_scheduler():
    # with no directive, the DirectedScheduler consumes the RNG stream
    # exactly like RandomScheduler: byte-identical executions
    for seed in range(10):
        a = Machine(parse_module(UAF), scheduler=RandomScheduler(seed)).run(
            "main", ()
        )
        b = Machine(
            parse_module(UAF), scheduler=DirectedScheduler(seed, None)
        ).run("main", ())
        assert (a.outcome, a.duration, a.instructions_executed) == (
            b.outcome, b.duration, b.instructions_executed,
        )


# -- Scheduler.pick fairness -------------------------------------------------


def test_pick_resumes_from_successor_when_last_left():
    s = Scheduler()
    assert s.pick([1, 2, 9])[0] == 1
    assert s.pick([1, 2, 9])[0] == 2
    # 2 blocked; the successor position is 9 — the old code restarted
    # at ordered[0] and handed 1 the CPU again
    assert s.pick([1, 9])[0] == 9


def test_pick_no_starvation_under_low_tid_churn():
    # two low tids blocking and waking in lockstep must not starve the
    # high tid: every window of picks includes it
    s = Scheduler()
    picks = []
    runnable_cycle = [[1, 2, 9], [1, 9], [2, 9], [1, 2, 9]]
    for i in range(40):
        runnable = runnable_cycle[i % len(runnable_cycle)]
        picks.append(s.pick(list(runnable))[0])
    count = picks.count(9)
    assert count >= len(picks) // 4, picks


def test_pick_wraps_past_the_highest_tid():
    s = Scheduler()
    assert s.pick([3, 7])[0] == 3
    assert s.pick([3, 7])[0] == 7
    # 7 exits while a new higher tid arrives: wrap to the lowest
    assert s.pick([1, 3])[0] == 1
