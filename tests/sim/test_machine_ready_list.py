"""The runnable list of a round, against a scan of every thread.

``Machine`` keeps its runnable tids in tid order as threads change state
instead of scanning every thread each round.  Random programs that
spawn, block on mutexes, condition variables and semaphores, wake,
sleep, exit and crash check that every round hands the scheduler what
the scan ``[tid for tid, t in threads.items() if t.state == RUNNABLE]``
gives at the start of the round: before the round wakes the sleepers
whose delay has expired, so a thread woken in a round joins the next
one.
"""

import random

import pytest

from repro.ir import parse_module
from repro.sim import Machine, RandomScheduler
from repro.sim.machine import RUNNABLE


def _scan(machine: Machine) -> list[int]:
    return [tid for tid, t in machine.threads.items() if t.state == RUNNABLE]


class ScanningMachine(Machine):
    """Scans the threads before a round wakes expired sleepers."""

    pre_wake: list[int] | None = None
    wakes = 0

    def _wake_sleepers(self) -> None:
        self.pre_wake = _scan(self)
        self.wakes += 1
        super()._wake_sleepers()


class CheckingScheduler(RandomScheduler):
    """Checks every round's runnable list against the scan."""

    def __init__(self, seed: int):
        super().__init__(seed, mean_quantum=3)
        self.machine: ScanningMachine | None = None
        self.rounds = 0

    def pick(self, runnable):
        m = self.machine
        # a round that woke sleepers scanned before waking them; one
        # that woke none (or a clock jump's wake, with nothing runnable
        # then) is scanned now
        expected = m.pre_wake or _scan(m)
        m.pre_wake = None
        assert list(runnable) == expected, (self.rounds, runnable, expected)
        self.rounds += 1
        return super().pick(runnable)


def _worker(rng: random.Random, index: int) -> str:
    """A worker body: a random sequence of sleeps, lock sections,
    semaphore and condvar operations, child spawns and (rarely) a null
    dereference."""
    lines = []
    for step in range(rng.randint(3, 8)):
        op = rng.choice(
            ["delay", "delay", "lock", "nested", "sema", "notify", "wait",
             "child", "crash"]
        )
        if op == "delay":
            lines.append(f"delay {rng.randint(0, 400)}")
        elif op == "lock":
            mu = rng.choice(["@m0", "@m1"])
            lines += [f"lock {mu}", f"delay {rng.randint(0, 200)}", f"unlock {mu}"]
        elif op == "nested":  # opposite orders across workers can deadlock
            a, b = rng.sample(["@m0", "@m1"], 2)
            lines += [f"lock {a}", f"delay {rng.randint(0, 100)}", f"lock {b}",
                      f"unlock {b}", f"unlock {a}"]
        elif op == "sema":
            lines += ["semwait @sm", f"delay {rng.randint(0, 150)}", "sempost @sm"]
        elif op == "notify":
            lines.append("condnotify @cv")
        elif op == "wait" and rng.random() < 0.5:  # may never be notified
            lines.append("condwait @cv")
        elif op == "child":
            lines += [f"%c{step} = spawn @child({rng.randint(0, 300)})",
                      f"join %c{step}"]
        elif op == "crash" and rng.random() < 0.2:
            lines += [f"%p{step} = load @g", f"%v{step} = load %p{step}"]
    body = "\n  ".join(lines + ["ret"])
    return f"func w{index}() -> void {{\nentry:\n  {body}\n}}\n"


def _program(seed: int) -> str:
    rng = random.Random(seed)
    workers = rng.randint(2, 5)
    spawns = "\n  ".join(f"%t{i} = spawn @w{i}()" for i in range(workers))
    joins = "\n  ".join(f"join %t{i}" for i in range(workers))
    return (
        "module ready\n"
        "global m0: lock\nglobal m1: lock\nglobal cv: cond\nglobal sm: sema\n"
        "global g: ptr<i64> = null\n"
        "func child(d: i64) -> void {\nentry:\n  delay %d\n  ret\n}\n"
        + "".join(_worker(rng, i) for i in range(workers))
        + "func main() -> void {\nentry:\n  seminit @sm, 1\n  "
        + spawns + f"\n  delay {rng.randint(0, 300)}\n  " + joins + "\n  ret\n}\n"
    )


def _run(seed: int) -> tuple[str, CheckingScheduler, ScanningMachine]:
    scheduler = CheckingScheduler(seed)
    machine = ScanningMachine(parse_module(_program(seed)), scheduler=scheduler)
    scheduler.machine = machine
    return machine.run("main").outcome, scheduler, machine


@pytest.mark.parametrize("chunk", range(4))
def test_every_round_gets_the_scan_of_its_start(chunk):
    for seed in range(chunk * 25, chunk * 25 + 25):
        _, scheduler, _ = _run(seed)
        assert scheduler.rounds > 0


def test_the_scripts_reach_every_kind_of_event():
    outcomes, wakes, blocked = set(), 0, 0
    for seed in range(100):
        outcome, _, machine = _run(seed)
        outcomes.add(outcome)
        wakes += machine.wakes
        blocked += sum(s.lock_ops for s in machine.stats.values())
    # threads exit (success), crash, deadlock and hang across the seeds,
    # and rounds wake sleepers
    assert {"success", "crash", "deadlock", "hang"} <= outcomes
    assert wakes > 100 and blocked > 100


def test_a_thread_set_runnable_from_outside_rejoins_the_rounds():
    machine = Machine(parse_module(_program(0)))
    main = machine._spawn_thread(machine.module.function("main"), [])
    assert machine._ready == [main.tid]
    main.state = "blocked-cond"
    assert machine._ready == []
    main.state = RUNNABLE
    main.state = RUNNABLE  # idempotent
    assert machine._ready == [main.tid]
