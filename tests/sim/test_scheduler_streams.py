"""Pinned RNG streams of the seeded schedulers.

Every flat golden, step-8 collection and diagnosis rests on a
scheduler consuming exactly the same ``random`` stream for the same
runnable sets.  Each case below hashes 5,000 ``(tid, quantum)`` picks
over a varying runnable set; a change to how a policy draws (the
choice, the geometric quantum and its cap, the slice draw) or to
CPython's ``random`` changes a hash.  The hashes were recorded before
the geometric draws were folded into one helper.
"""

import hashlib
import random

import pytest

from repro.sim.scheduler import (
    DirectedScheduler,
    HierarchicalScheduler,
    RandomScheduler,
)

PICKS = 5_000


def _runnable_sets(seed: int):
    """``PICKS`` runnable tid lists: 1..8 of tids 1..9, unsorted."""
    rng = random.Random(1_000 + seed)
    tids = list(range(1, 10))
    for _ in range(PICKS):
        yield rng.sample(tids, rng.randint(1, 8))


def _stream_hash(scheduler, seed: int) -> str:
    gate = getattr(scheduler, "filter_runnable", None)
    digest = hashlib.sha256()
    for runnable in _runnable_sets(seed):
        if gate is not None:
            runnable = gate(None, runnable)  # no directive: machine unused
        tid, quantum = scheduler.pick(runnable)
        assert tid in runnable and quantum >= 1
        digest.update(f"{tid},{quantum};".encode())
    return digest.hexdigest()[:16]


CASES = {
    "random-mean24-s0": (lambda: RandomScheduler(seed=0), 0, "98664562909dfba4"),
    "random-mean24-s7": (lambda: RandomScheduler(seed=7), 7, "5c00678fa84ab442"),
    # mean 2: short quanta, so nearly every pick is a fresh choice
    "random-mean2-s3": (
        lambda: RandomScheduler(seed=3, mean_quantum=2), 3, "7264adbef4ebe112",
    ),
    "hierarchical-s0": (lambda: HierarchicalScheduler(seed=0), 0, "eeaa23453f294b29"),
    "hierarchical-3cpu-s5": (
        lambda: HierarchicalScheduler(seed=5, vcpus=3, mean_quantum=4, slice_picks=2),
        5,
        "57762c53b9ad529b",
    ),
    "directed-none-s0": (lambda: DirectedScheduler(seed=0), 0, "98664562909dfba4"),
    "directed-none-s11": (
        lambda: DirectedScheduler(seed=11, mean_quantum=2), 11, "66ff533cfd4287d1",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pick_stream_is_pinned(case):
    make, seed, want = CASES[case]
    assert _stream_hash(make(), seed) == want


class _AlwaysContinue:
    """A stand-in RNG whose every draw continues the geometric loop:
    counts the draws a pick consumes once it runs into the 16x cap,
    which a real stream reaches with probability about e**-16."""

    def __init__(self):
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return 0.999999

    def choice(self, seq):
        return seq[0]


@pytest.mark.parametrize("mean", [2, 24])
def test_quantum_stops_at_the_cap_after_exact_draws(mean):
    scheduler = RandomScheduler(seed=0, mean_quantum=mean)
    scheduler._rng = rng = _AlwaysContinue()
    assert scheduler.pick([3, 1]) == (1, 16 * mean)
    assert rng.draws == 16 * mean - 1


def test_hierarchical_slice_and_quantum_stop_at_their_caps():
    scheduler = HierarchicalScheduler(seed=0, vcpus=1, mean_quantum=3, slice_picks=2)
    scheduler._rng = rng = _AlwaysContinue()
    assert scheduler.pick([1]) == (1, 16 * 3)
    # one fresh slice draw (cap 32) and one quantum draw (cap 48)
    assert rng.draws == (16 * 2 - 1) + (16 * 3 - 1)
    assert scheduler._slice_left[0] == 16 * 2 - 1


def test_reset_replays_the_stream():
    scheduler = HierarchicalScheduler(seed=5, vcpus=3, mean_quantum=4, slice_picks=2)
    first = _stream_hash(scheduler, 5)
    scheduler.reset()
    assert _stream_hash(scheduler, 5) == first
