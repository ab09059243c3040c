"""Thread scheduling policies.

The scheduler is the simulator's source of interleaving nondeterminism:
given the set of runnable threads it picks who runs next and for how
many instructions (the quantum).  A seeded RNG makes every execution
reproducible from ``(module, workload, seed)`` — the property the whole
evaluation leans on, since benches need both failing and successful
executions of the same bug on demand.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable


def _geometric(draw: Callable[[], float], mean: int) -> int:
    """A geometric count with mean ``mean``, at least 1 and capped at
    ``16 * mean``: one more for each ``draw()`` above ``1 / mean``.
    Consumes one draw per increment plus the one that stops the count
    (none past the cap), so every policy's RNG stream is fixed by it."""
    p = 1.0 / mean
    cap = 16 * mean
    count = 1
    while draw() > p:
        count += 1
        if count >= cap:
            break
    return count


class Scheduler:
    """Base policy: round-robin with quantum 1 (fully deterministic)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._last: int | None = None

    def reset(self) -> None:
        self._last = None

    def pick(self, runnable: list[int]) -> tuple[int, int]:
        """Return (tid to run, instruction quantum)."""
        if not runnable:
            raise ValueError("pick() with no runnable threads")
        ordered = sorted(runnable)
        if self._last is None:
            tid = ordered[0]
        elif self._last in ordered:
            tid = ordered[(ordered.index(self._last) + 1) % len(ordered)]
        else:
            # _last exited or blocked: resume round-robin from its
            # successor position instead of restarting at ordered[0],
            # which starved high tids whenever low tids churned
            tid = ordered[bisect.bisect_right(ordered, self._last) % len(ordered)]
        self._last = tid
        return tid, 1


class RandomScheduler(Scheduler):
    """Uniform random choice with geometric quanta (the default policy).

    ``mean_quantum`` instructions run between preemption points on
    average.  Preemption can occur anywhere, so data races can resolve
    either way across executions — exactly the in-production behaviour
    Snorlax watches for.
    """

    def __init__(self, seed: int = 0, mean_quantum: int = 24):
        super().__init__(seed)
        if mean_quantum < 1:
            raise ValueError("mean_quantum must be >= 1")
        self.mean_quantum = mean_quantum
        self._rng = random.Random(seed)

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)

    def pick(self, runnable: list[int]) -> tuple[int, int]:
        if not runnable:
            raise ValueError("pick() with no runnable threads")
        rng = self._rng
        tid = rng.choice(sorted(runnable))
        self._last = tid
        return tid, _geometric(rng.random, self.mean_quantum)


class HierarchicalScheduler(Scheduler):
    """Two-level (vcpu -> thread) scheduling, modeled on schedsi.

    Threads are pinned to one of ``vcpus`` virtual CPUs by tid.  The top
    level picks a vcpu with runnable work uniformly at random; within a
    vcpu, threads run round-robin, but a thread keeps its vcpu for a
    whole *timeslice* (several picks) before the local queue rotates.
    When the running thread leaves the race mid-slice (blocks, sleeps,
    exits), the next thread on the same vcpu **inherits the remainder of
    the slice** instead of drawing a fresh one — schedsi's timeslice
    inheritance.  The result is bursty, affinity-clustered interleaving:
    same-vcpu threads alternate coarsely while cross-vcpu preemption
    stays fine-grained, which is what real OS scheduling looks like and
    what uniform random preemption cannot produce.

    Per-pick quanta are geometric with ``mean_quantum``, like
    :class:`RandomScheduler`, so diagnosis timing assumptions carry over.
    """

    def __init__(
        self,
        seed: int = 0,
        vcpus: int = 2,
        mean_quantum: int = 24,
        slice_picks: int = 4,
    ):
        super().__init__(seed)
        if vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if mean_quantum < 1:
            raise ValueError("mean_quantum must be >= 1")
        if slice_picks < 1:
            raise ValueError("slice_picks must be >= 1")
        self.vcpus = vcpus
        self.mean_quantum = mean_quantum
        self.slice_picks = slice_picks
        self._rng = random.Random(seed)
        # per-vcpu: (current thread, picks left in the current slice)
        self._running: dict[int, int] = {}
        self._slice_left: dict[int, int] = {}

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._running = {}
        self._slice_left = {}

    def _vcpu_of(self, tid: int) -> int:
        return tid % self.vcpus

    def pick(self, runnable: list[int]) -> tuple[int, int]:
        if not runnable:
            raise ValueError("pick() with no runnable threads")
        by_vcpu: dict[int, list[int]] = {}
        for tid in sorted(runnable):
            by_vcpu.setdefault(self._vcpu_of(tid), []).append(tid)
        vcpu = self._rng.choice(sorted(by_vcpu))
        queue = by_vcpu[vcpu]
        current = self._running.get(vcpu)
        left = self._slice_left.get(vcpu, 0)
        if current in queue and left > 0:
            tid = current
        else:
            # rotate the local queue past the previous occupant; if it
            # left the race with slice remaining, the successor inherits
            # that remainder (timeslice inheritance), else a fresh draw
            if current is not None and current not in queue and left > 0:
                pass  # inherited: keep `left`
            else:
                left = _geometric(self._rng.random, self.slice_picks)
            tid = queue[(bisect.bisect_right(queue, current if current is not None else -1)) % len(queue)]
        self._running[vcpu] = tid
        self._slice_left[vcpu] = left - 1
        self._last = tid
        return tid, _geometric(self._rng.random, self.mean_quantum)


class FixedOrderScheduler(Scheduler):
    """Replays an explicit (tid, quantum) script, then falls back to RR.

    Used by tests that need one exact interleaving.
    """

    def __init__(self, script: list[tuple[int, int]]):
        super().__init__(0)
        self.script = list(script)
        self._idx = 0

    def reset(self) -> None:
        super().reset()
        self._idx = 0

    def pick(self, runnable: list[int]) -> tuple[int, int]:
        while self._idx < len(self.script):
            tid, quantum = self.script[self._idx]
            self._idx += 1
            if tid in runnable:
                return tid, quantum
        return super().pick(runnable)


# -- directed scheduling (repro.validate) ------------------------------------
#
# A DirectedScheduler runs threads freely but *gates* execution at the
# uids of a diagnosed target-event order: threads positioned at a gated
# instruction are held until it is that event's turn.  Because inter-
# event gaps in this simulator are dominated by virtual-clock delays,
# pick() alone cannot reorder events — the machine consults
# ``filter_runnable`` every scheduling round (advancing the clock when
# every runnable thread is held and sleepers exist) so a gate can
# outwait arbitrary timing.  ``force_release`` is the no-deadlock escape
# hatch: when nothing is runnable, nothing sleeps, and every runnable
# thread is held, the machine executes one instruction of the
# scheduler's choice rather than stalling — so a directive that became
# unsatisfiable (e.g. after an IR fix) degrades to a free run instead
# of a hang.
#
# The machine is duck-typed here (thread_positions(), .threads, state
# strings) because repro.sim.machine imports this module.

_FINISHED_STATES = ("done", "crashed")
# A thread blocked in join() counts as "out of the race" for
# serialization purposes: it will not execute another target event
# until the thread it waits for (often the gated one) finishes, so
# treating it as a blocker would deadlock the gate.  The same holds for
# waits with no identifiable owner (condvar/semaphore/barrier): the
# waker is frequently the gated thread itself.  Lock-style waits
# (blocked-lock, blocked-rw) stay *blocking*: any current holder can
# release and put the thread back in the race.
_INERT_STATES = (
    "done",
    "crashed",
    "blocked-join",
    "blocked-cond",
    "blocked-sema",
    "blocked-barrier",
)


@dataclass(frozen=True)
class ForceOrder:
    """Force the target events at ``uids`` to execute in exactly this
    order (the diagnosed failing interleaving).  The same uid may appear
    more than once — each occurrence gates one dynamic instance."""

    uids: tuple[int, ...]

    def describe(self) -> str:
        return "force-order " + "->".join(str(u) for u in self.uids)


@dataclass(frozen=True)
class SerializeAfter:
    """Hold any thread positioned at ``gate_uid`` while another live
    thread rooted (frames[0]) at one of ``other_roots`` could still
    execute its slot's events — the *inverse* of an order violation:
    the diagnosed-first event is forced to happen last."""

    gate_uid: int
    other_roots: frozenset[str]

    def describe(self) -> str:
        roots = ",".join(sorted(self.other_roots))
        return f"serialize uid {self.gate_uid} after roots [{roots}]"


@dataclass(frozen=True)
class SerializeFunction:
    """Serialize whole-function entry for threads rooted at
    ``function``: one rooted thread runs to completion before the next
    starts.  The inverse directive when both racing slots execute the
    same function (symmetric races, e.g. a double free)."""

    function: str

    def describe(self) -> str:
        return f"serialize function {self.function}"


Directive = ForceOrder | SerializeAfter | SerializeFunction


class DirectedScheduler(RandomScheduler):
    """RandomScheduler plus one gating :data:`Directive`.

    Free-running behaviour (choice + quantum) is byte-identical to
    ``RandomScheduler(seed, mean_quantum)`` consuming the same RNG
    stream; the directive only *filters* who may run.  When a thread
    sits at the front of a ForceOrder it runs exclusively with quantum
    1, so it executes exactly the gated instruction before the gate is
    re-evaluated.
    """

    def __init__(
        self, seed: int = 0, directive: Directive | None = None,
        mean_quantum: int = 24,
    ):
        super().__init__(seed, mean_quantum)
        self.directive = directive
        self._cursor = 0  # next unmet position in a ForceOrder
        self._advance_next = False  # front thread ran; advance on re-entry
        self._exclusive: int | None = None  # tid owed a quantum-1 run
        self._token: int | None = None  # SerializeFunction entry token
        self.releases = 0  # force_release invocations (gate gave up)

    def reset(self) -> None:
        super().reset()
        self._cursor = 0
        self._advance_next = False
        self._exclusive = None
        self._token = None
        self.releases = 0

    @property
    def satisfied(self) -> bool:
        """True once a ForceOrder has gated every position (always True
        for the serialization directives — they never "complete")."""
        if isinstance(self.directive, ForceOrder):
            # _advance_next means the front event already executed but
            # the cursor bump is still pending (it lands on the next
            # filter round — which never comes when the run *ends* at
            # the final gated instruction, e.g. a forced crash)
            cursor = self._cursor + (1 if self._advance_next else 0)
            return cursor >= len(self.directive.uids)
        return True

    # -- machine hooks ---------------------------------------------------

    def filter_runnable(self, machine, runnable: list[int]) -> list[int]:
        """The runnable tids the directive allows this round (may be
        empty: the machine then advances the clock or force-releases)."""
        self._exclusive = None
        if self.directive is None or not runnable:
            return list(runnable)
        if isinstance(self.directive, ForceOrder):
            return self._filter_force_order(machine, runnable)
        if isinstance(self.directive, SerializeAfter):
            return self._filter_serialize_after(machine, runnable)
        return self._filter_serialize_function(machine, runnable)

    def barrier_uids(self, machine) -> set[int]:
        """Uids a quantum must not run *through*: the machine truncates
        a quantum when the next instruction is one of these, so the
        round-level filter gets to rule on every gated instruction."""
        d = self.directive
        if isinstance(d, ForceOrder):
            return set(d.uids[self._cursor:])
        if isinstance(d, SerializeAfter):
            return {d.gate_uid}
        return set()

    def force_release(self, machine, runnable: list[int]) -> int:
        """Choose who runs when the gate held everyone and nothing
        sleeps.  For a ForceOrder, prefer the thread whose gated event
        comes earliest in the remaining order (least damage to it)."""
        self.releases += 1
        if isinstance(self.directive, ForceOrder):
            remaining = self.directive.uids[self._cursor:]
            positions = machine.thread_positions()
            best: tuple[int, int] | None = None
            for tid in runnable:
                uid = positions.get(tid)
                if uid in remaining:
                    rank = (remaining.index(uid), tid)
                    if best is None or rank < best:
                        best = rank
            if best is not None:
                return best[1]
        return min(runnable)

    # -- directive implementations ---------------------------------------

    def _filter_force_order(self, machine, runnable: list[int]) -> list[int]:
        if self._advance_next:
            self._cursor += 1
            self._advance_next = False
        remaining = self.directive.uids[self._cursor:]
        if not remaining:
            return list(runnable)
        positions = machine.thread_positions()
        front = remaining[0]
        front_tids = [t for t in runnable if positions.get(t) == front]
        if front_tids:
            tid = min(front_tids)
            self._advance_next = True
            self._exclusive = tid
            return [tid]
        gated = set(remaining)
        return [t for t in runnable if positions.get(t) not in gated]

    def _filter_serialize_after(self, machine, runnable: list[int]) -> list[int]:
        directive = self.directive
        rival_seen = False
        blockers: set[int] = set()
        active: set[int] = set()  # every non-inert thread, any root
        for t in machine.threads.values():
            inert = t.state in _INERT_STATES
            if not inert:
                active.add(t.tid)
            if t.root in directive.other_roots:
                rival_seen = True
                if not inert:
                    blockers.add(t.tid)
        positions = machine.thread_positions()
        allowed = []
        for t in runnable:
            if positions.get(t) != directive.gate_uid:
                allowed.append(t)
            elif blockers - {t}:
                continue  # a rival thread is still in the race
            elif not rival_seen and (active - {t}):
                continue  # the rival may not have been spawned yet
            else:
                allowed.append(t)
        return allowed

    def _filter_serialize_function(self, machine, runnable: list[int]) -> list[int]:
        fn = self.directive.function
        rooted = {
            t.tid
            for t in machine.threads.values()
            if t.state not in _FINISHED_STATES and t.root == fn
        }
        if self._token is not None and self._token not in rooted:
            self._token = None  # holder finished; pass the token on
        if self._token is None and rooted:
            self._token = min(rooted)
        return [t for t in runnable if t not in rooted or t == self._token]

    # -- picking ----------------------------------------------------------

    def pick(self, runnable: list[int]) -> tuple[int, int]:
        if self._exclusive is not None and self._exclusive in runnable:
            tid = self._exclusive
            self._exclusive = None
            self._last = tid
            return tid, 1
        self._exclusive = None
        return super().pick(runnable)
