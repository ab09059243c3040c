"""The scheduling round: wake order, sleeping, and hooks mid-quantum."""

import pytest

from repro.ir import parse_module
from repro.sim import Machine, RandomScheduler
from repro.sim.scheduler import Scheduler


class RecordingScheduler(RandomScheduler):
    """Logs, at every pick, the clock, the runnable tids it was handed
    and every thread's ``(state, wake_time)``."""

    def __init__(self, seed: int, mean_quantum: int = 24):
        super().__init__(seed, mean_quantum)
        self.machine: Machine | None = None
        self.rounds: list[tuple[int, tuple[int, ...], dict]] = []

    def pick(self, runnable):
        m = self.machine
        threads = {t.tid: (t.state, t.wake_time) for t in m.threads.values()}
        self.rounds.append((m.clock.now, tuple(runnable), threads))
        return super().pick(runnable)


def _record(src: str, seed: int, mean_quantum: int = 24) -> RecordingScheduler:
    scheduler = RecordingScheduler(seed, mean_quantum)
    machine = Machine(parse_module(src), scheduler=scheduler)
    scheduler.machine = machine
    assert machine.run("main").outcome == "success"
    return scheduler


_BUSY_MAIN = """
module t
global g: i64 = 0
func worker() -> void {
entry:
  delay 40
  %v = load @g
  %n = add %v, 1
  store %n, @g
  delay 25
  ret
}
func main() -> void {
entry:
  %a = spawn @worker()
  %b = spawn @worker()
  %i = alloca i64
  store 0, %i
  br loop
loop:
  %v = load %i
  %n = add %v, 1
  store %n, %i
  %c = cmp lt %n, 300
  cbr %c, loop, done
done:
  join %a
  join %b
  ret
}
"""


def test_a_woken_thread_joins_the_next_round_not_this_one():
    woken = 0
    for seed in range(5):
        rounds = _record(_BUSY_MAIN, seed, mean_quantum=3).rounds
        for (now, runnable, threads), (_, next_runnable, _) in zip(rounds, rounds[1:]):
            for tid, (state, wake_time) in threads.items():
                if state == "runnable" and tid not in runnable:
                    # its delay expired: woken this round, after the
                    # runnable tids were taken
                    assert wake_time <= now
                    assert tid in next_runnable
                    woken += 1
            assert all(threads[tid][0] == "runnable" for tid in runnable)
    assert woken > 0  # the property was exercised


_ALL_ASLEEP = """
module t
func worker() -> void {
entry:
  delay 300
  ret
}
func main() -> void {
entry:
  %t = spawn @worker()
  delay 100
  join %t
  ret
}
"""


def test_when_every_thread_sleeps_the_clock_jumps_to_the_earliest_wake():
    rounds = _record(_ALL_ASLEEP, seed=0).rounds
    wakes = {}
    for tid in (1, 2):
        slept = [
            (i, threads[tid][1])
            for i, (_, _, threads) in enumerate(rounds)
            if threads.get(tid, ("", 0))[0] == "sleeping"
        ]
        assert slept, f"thread {tid} never slept at a pick"
        i, wake_time = slept[-1]
        # the first round that runs the thread again starts exactly at
        # its wake time: nothing else could run, so the clock jumped
        now, runnable, _ = next(r for r in rounds[i + 1 :] if tid in r[1])
        assert now == wake_time
        wakes[tid] = wake_time
    # main's shorter delay ends first, while the worker still sleeps
    assert wakes[1] < wakes[2]


class _OneLongQuantum(Scheduler):
    def pick(self, runnable):
        return runnable[0], 1000


_STRAIGHT = """
module t
func main() -> i64 {
entry:
  %a = add 1, 2
  %b = add %a, 3
  %c = add %b, 4
  ret %c
}
"""


def _end_run(m, thread):
    m._outcome = "stopped"


def _switch_out(m, thread):
    thread.state = "blocked-cond"  # with nothing left to wake it


class _Instrumentation:
    def __init__(self, uid, effect):
        self.uid, self.effect = uid, effect

    def before_instruction(self, machine, tid, instr):
        if instr.uid == self.uid:
            self.effect(machine, machine.threads[tid])
        return 0


@pytest.mark.parametrize("effect", [_end_run, _switch_out])
@pytest.mark.parametrize("hook", ["breakpoint", "instrumentation"])
def test_a_hook_that_stops_the_thread_still_runs_its_instruction(hook, effect):
    # the quantum stops before the next instruction, not before the one
    # the hook fired on
    module = parse_module(_STRAIGHT)
    by_name = {getattr(i, "name", ""): i for i in module.instructions()}
    b, c = by_name["b"], by_name["c"]
    if hook == "breakpoint":
        machine = Machine(module, scheduler=_OneLongQuantum())
        machine.breakpoints[b.uid] = lambda m, thread, instr: effect(m, thread)
    else:
        machine = Machine(
            module, scheduler=_OneLongQuantum(),
            instrumentation=_Instrumentation(b.uid, effect),
        )
    result = machine.run("main")
    assert result.outcome == ("stopped" if effect is _end_run else "hang")
    assert result.instructions_executed == 2
    assert result.thread_stats[1].instructions == 2
    assert result.duration == 2
    assert machine.thread_position(machine.threads[1]) == c.uid
