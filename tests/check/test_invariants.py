"""The oracles must accept good artifacts and reject crafted-bad ones."""

import random

import pytest

from repro.check import generator, invariants
from repro.check.invariants import InvariantViolation
from repro.core.andersen import solve
from repro.core.statistics import score_patterns
from repro.core.trace_processing import process_snapshot
from repro.pt.decoder import DynamicInstruction


def _params():
    return {
        "threads": 3, "events": 10, "uids": 5, "desync_pct": 20,
        "zero_width_pct": 10, "observations": 6, "failing": 2, "sigs": 4,
        "max_rank": 4, "dynamics_pct": 50, "vars": 10, "objs": 5,
        "copies": 8, "loads": 5, "stores": 5,
    }


# -- processed-trace oracle --------------------------------------------------


def test_good_processed_trace_passes():
    rng = random.Random(1)
    traces = generator.gen_thread_traces(rng, _params())
    pt = process_snapshot("t", traces, failing=True)
    invariants.check_processed_trace(pt, traces, rng=rng)


def test_unsorted_uid_bucket_is_rejected():
    rng = random.Random(2)
    traces = generator.gen_thread_traces(rng, _params())
    pt = process_snapshot("t", traces, failing=True)
    # corrupt: append out of (t_lo, seq) order, the pre-fix anchor bug
    uid = next(iter(pt.by_uid))
    early = DynamicInstruction(uid, 77, 0, 0, 0)
    pt.add_instance(early)  # files it in order and registers its thread
    bucket = pt.instances(uid)
    bucket.remove(early)
    bucket.append(early)
    with pytest.raises(InvariantViolation) as exc:
        invariants.check_processed_trace(pt, traces, rng=rng)
    assert "by-uid" in exc.value.invariant


def test_unregistered_thread_is_rejected():
    rng = random.Random(3)
    traces = generator.gen_thread_traces(rng, _params())
    pt = process_snapshot("t", traces, failing=True)
    uid = next(iter(pt.by_uid))
    ghost = DynamicInstruction(uid, 88, 0, 10, 10)
    pt.add_instance(ghost)
    pt.threads.discard(88)
    with pytest.raises(InvariantViolation) as exc:
        invariants.check_processed_trace(pt, traces, rng=rng)
    assert exc.value.invariant == "threads-cover-dynamic"


def test_bucket_missing_a_decoded_instance_is_rejected():
    rng = random.Random(4)
    traces = generator.gen_thread_traces(rng, _params())
    pt = process_snapshot("t", traces, failing=True)
    uid = next(iter(pt.by_uid))
    pt.instances(uid).pop()  # lazy expansion lost one occurrence
    with pytest.raises(InvariantViolation) as exc:
        invariants.check_processed_trace(pt, traces, rng=rng)
    assert exc.value.invariant == "by-uid-partitions-dynamic"


def test_bucket_with_a_wrong_interval_is_rejected():
    rng = random.Random(5)
    traces = generator.gen_thread_traces(rng, _params())
    pt = process_snapshot("t", traces, failing=True)
    uid = next(iter(pt.by_uid))
    bucket = pt.instances(uid)
    d = bucket[-1]
    bucket[-1] = d._replace(t_hi=d.t_hi + 1)
    with pytest.raises(InvariantViolation) as exc:
        invariants.check_processed_trace(pt, traces, rng=rng)
    assert exc.value.invariant == "by-uid-partitions-dynamic"


# -- partial-order oracle ----------------------------------------------------


def test_antisymmetry_violation_is_rejected():
    # a crafted pair ordered both ways (overlapping but before() lies)
    class Lying(DynamicInstruction):
        def before(self, other):
            return True

    a = Lying(1, 1, 0, 100, 200)
    b = Lying(2, 2, 0, 100, 200)
    with pytest.raises(InvariantViolation):
        invariants.check_partial_order([a, b], random.Random(0))


# -- score oracle ------------------------------------------------------------


def test_good_scores_pass():
    rng = random.Random(4)
    observations = generator.gen_observations(rng, _params())
    scored = score_patterns(observations)
    invariants.check_scores(observations, scored)


def test_tampered_f1_is_rejected():
    rng = random.Random(5)
    observations = generator.gen_observations(rng, _params())
    scored = score_patterns(observations)
    assert scored
    scored[0].f1 = 0.123456
    with pytest.raises(InvariantViolation):
        invariants.check_scores(observations, scored)


def test_dropped_signature_is_rejected():
    rng = random.Random(6)
    observations = generator.gen_observations(rng, _params())
    scored = score_patterns(observations)
    assert scored
    with pytest.raises(InvariantViolation):
        invariants.check_scores(observations, scored[1:])


# -- solver oracles ----------------------------------------------------------


def test_correct_solver_result_passes():
    system = generator.gen_constraint_system(random.Random(7), _params())
    result = solve(system)
    invariants.check_andersen_equivalence(system, result)
    invariants.check_steensgaard_superset(system, result)


def test_tampered_points_to_set_is_rejected():
    system = generator.gen_constraint_system(random.Random(8), _params())
    result = solve(system)
    # remove one object from one non-empty points-to set
    for node, objs in result._pts.items():
        if objs:
            objs.pop()
            break
    with pytest.raises(InvariantViolation):
        invariants.check_andersen_equivalence(system, result)
