"""Runs share boot state, never results.

Machines of one module share its pre-decoded code, frame layouts and
globals image, and machines of one cost model share its price table.
None of that may carry one run's state into the next: a seed replayed
after another seed gives the same execution and trace, a cost model
changed between runs is priced again, and no heap or stack object of
one run appears in another.
"""

from dataclasses import asdict

import pytest

from repro.corpus import bug
from repro.ir import parse_module
from repro.runtime.client import SnorlaxClient
from repro.sim import Machine
from repro.sim.clock import CostModel

BUG_ID = "pbzip2-n/a"


@pytest.fixture(scope="module")
def step8():
    """A client of the bug and its failure PC, as step 8 arms it."""
    spec = bug(BUG_ID)
    client = SnorlaxClient(spec.fresh_module(), spec.workload, entry=spec.entry)
    failing = client.find_runs(True, 1)[0]
    return client, failing.failure.failing_uid


def _observed(run) -> dict:
    result = run.result
    return {
        "outcome": result.outcome,
        "duration": result.duration,
        "instructions": result.instructions_executed,
        "thread_stats": {tid: asdict(s) for tid, s in result.thread_stats.items()},
        "buffers": dict(run.snapshot.buffers) if run.snapshot else None,
        "encoders": {tid: asdict(s) for tid, s in run.driver.stats().items()},
    }


def test_a_seed_replays_the_same_after_another_seed(step8):
    client, uid = step8
    a, b = 10_003, 10_004
    first = _observed(client.run_once(a, breakpoint_uids=[uid]))
    between = _observed(client.run_once(b, breakpoint_uids=[uid]))
    again = _observed(client.run_once(a, breakpoint_uids=[uid]))
    assert first == again
    assert first != between  # the seeds do interleave differently
    assert first["buffers"]  # the breakpoint snapshot was taken


def test_a_cost_model_changed_between_runs_is_priced_again(step8):
    client, _ = step8
    model = CostModel()
    runner = SnorlaxClient(client.module, client.workload, cost_model=model)
    base = runner.run_once(7).result.duration
    model.load = 40
    slower = runner.run_once(7).result.duration
    assert slower > base
    model.overrides["load"] = 2  # the in-place edit of a dict field
    assert runner.run_once(7).result.duration == base
    model.overrides.clear()
    assert runner.run_once(7).result.duration == slower
    model.load = 2
    assert runner.run_once(7).result.duration == base


_HEAP = """
module t
global g: ptr<i64> = null
func f() -> i64 {
entry:
  %s = alloca i64
  store 5, %s
  %v = load %s
  ret %v
}
func main() -> void {
entry:
  %p = malloc i64
  store 9, %p
  store %p, @g
  %r = call @f()
  ret
}
"""


def test_no_memory_object_of_a_run_is_visible_in_the_next():
    module = parse_module(_HEAP)
    first = Machine(module)
    assert first.run("main").outcome == "success"
    kinds = {obj.kind for obj in first.memory.objects()}
    assert kinds == {"global", "heap", "stack"}
    heap = next(o for o in first.memory.objects() if o.kind == "heap")
    assert first.memory.peek_word(first.global_address("g")) == heap.base

    second = Machine(module)
    # the next machine starts from the globals image alone: same global
    # addresses, initial values, no heap or stack object, no written word
    objects = second.memory.objects()
    assert [o.kind for o in objects] == ["global"]
    assert second.global_address("g") == first.global_address("g")
    assert second.memory.peek_word(second.global_address("g")) == 0
    assert second.memory.peek_word(heap.base) == 0
    assert second.memory.object_at(heap.base) is None
    assert second.run("main").outcome == "success"
    # the second run allocates at the same addresses, in new objects
    reused = {id(o) for o in first.memory.objects() if o.kind != "global"}
    assert not reused & {id(o) for o in second.memory.objects()}
    assert [(o.base, o.kind) for o in second.memory.objects()] == [
        (o.base, o.kind) for o in first.memory.objects()
    ]
    # the first run's dead stack slot stays dead, the second's died
    # with its own frame, and no run marked a shared global dead
    assert all(o.freed for o in first.memory.objects() if o.kind == "stack")
    assert all(o.freed for o in second.memory.objects() if o.kind == "stack")
    assert not any(o.freed for o in second.memory.objects() if o.kind == "global")
