"""Step-8 responses in every shape reach one collection policy.

A failing step-8 run used to answer with its whole sample, which
``_CollectionState.consume`` dropped.  An agent now leaves that sample
on the client and answers ``captured`` without one; in process the
sample still comes along.  Fed the same runs in any of those shapes,
the policy must end in the same state: attempts, misses, widening and
the samples it keeps.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import TraceSample
from repro.fleet.wire import TraceBatchResponse, decode_frame, encode_frame
from repro.runtime.protocol import TraceRequest, TraceResponse
from repro.runtime.server import CollectionPolicy, ServerStats, _CollectionState

FAILING_UID = 7
OUTCOMES = ("success", "step-limit", "crash", "assert", "deadlock", "hang")


def _state() -> _CollectionState:
    server = SimpleNamespace(
        policy=CollectionPolicy(
            success_traces_wanted=10_000, max_collection_attempts=10_000
        ),
        stats=ServerStats(),
        _widen_breakpoints=lambda uid: [uid, 3, 2],
    )
    return _CollectionState(server, FAILING_UID, start_seed=0)


def _sample(i: int, failing: bool) -> TraceSample:
    return TraceSample(
        label=f"speculative-{i}",
        failing=failing,
        buffers={0: i.to_bytes(2, "big"), 1: b"\x02\x82"},
        positions={0: FAILING_UID},
        snapshot_time=i,
    )


def _shapes(i: int, outcome: str, snapshot: bool) -> dict[str, TraceResponse]:
    """One run's response: as the old client sent it (a failing run's
    sample attached, no ``captured``), in process today, and as an agent
    ships it over the wire."""
    # a step-limit run is no guest failure: its snapshot is evidence
    failing = outcome not in ("success", "step-limit")
    label = f"speculative-{i}"

    def sample():
        return _sample(i, failing) if snapshot else None

    in_process = TraceResponse(label, outcome, sample(), captured=snapshot)
    frame = encode_frame(TraceBatchResponse(responses=(in_process.shipped(),)))
    (wire,) = decode_frame(frame)[0].responses
    return {
        "old": TraceResponse(label, outcome, sample()),
        "in-process": in_process,
        "wire": wire,
    }


def _summary(state: _CollectionState) -> tuple:
    return (
        state.attempts,
        state.misses_at_pc,
        state.widened_to,
        list(state.breakpoints),
        [(s.label, s.buffers, s.snapshot_time) for s in state.samples],
        state.server.stats,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(OUTCOMES),
            st.booleans(),
            st.sampled_from((0, 0, 0, 1, 3, 6)),
        ),
        max_size=160,
    )
)
def test_every_response_shape_ends_in_the_same_state(runs):
    states = {name: _state() for name in ("old", "in-process", "wire")}
    for i, (outcome, snapshot, skip) in enumerate(runs):
        shapes = _shapes(i, outcome, snapshot)
        stale = set()
        for name, state in states.items():
            request = TraceRequest(
                label=f"speculative-{i}",
                seed=i,
                breakpoint_uids=tuple(state.breakpoints),
                breakpoint_skip=skip,
            )
            stale.add(state.consume(request, shapes[name]))
        assert len(stale) == 1
    old, *others = (_summary(s) for s in states.values())
    assert all(other == old for other in others)
    # 25 zero-skip misses widen the breakpoints in every shape
    if sum(1 for o, snap, skip in runs if not snap and skip == 0) >= 25:
        assert states["wire"].widened_to == 3


def test_a_failing_capture_is_dropped_and_not_a_miss():
    state = _state()
    request = TraceRequest("speculative-0", 0, (FAILING_UID,), 0)
    failing = TraceResponse("speculative-0", "crash", None, captured=True)
    for _ in range(30):
        assert state.consume(request, failing) is False
    assert (state.attempts, state.misses_at_pc, state.samples) == (30, 0, [])
    miss = TraceResponse("speculative-0", "success", None, captured=False)
    for _ in range(24):
        assert state.consume(request, miss) is False
    assert state.consume(request, miss) is True  # the 25th widens
    assert state.widened_to == 3
