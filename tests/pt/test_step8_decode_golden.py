"""Step-8 decode goldens: every breakpoint snapshot's decoding, per bug.

``tests/pt/test_stream_golden.py`` pins the decode of each bug's
*failing* run, whose walk ends at the failure PC.  Breakpoint snapshots
(Figure 2, step 8) stop at the breakpoint uid instead, usually in the
middle of a straight-line run, after skip counts that make the walk
revisit that uid with packets still queued.  This pins the decoding of
the snapshots ``tests/runtime/test_collection_golden.py`` already
issues: for all 67 bugs, the first 12 requests of the seed-0 cold
collection (seed ``10_000 + i``, breakpoint at the failure PC, skip
``i % 7``).  For every decoded thread of every snapshot it hashes

* the ``(uid, t_lo, t_hi, seq)`` list,
* ``stop_uid``, ``start_time`` and ``end_time``,
* the ``TimingSummary`` fields,
* ``control_events`` and ``timing_packets``, and
* the ``truncated`` and ``desync`` flags.

One sha256 digest per bug; any change to how the decoder walks, stops
or bounds a snapshot flips it.

Regenerate (only after an *intentional* change to decoding)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.corpus import all_bugs
    from tests.pt.test_step8_decode_golden import step8_decode_digest
    digests = {s.bug_id: step8_decode_digest(s) for s in all_bugs()}
    open("tests/pt/golden_step8_decode_digests.json", "w").write(
        json.dumps(digests, indent=2, sort_keys=True) + "\\n")
    EOF
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.corpus import all_bugs
from repro.runtime.client import SnorlaxClient

GOLDEN_PATH = Path(__file__).parent / "golden_step8_decode_digests.json"
# absent only while the regeneration recipe imports this module
GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

REQUESTS = 12
START_SEED = 10_000


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _thread(trace) -> list:
    return [
        trace.tid,
        [[d.uid, d.t_lo, d.t_hi, d.seq] for d in trace.instructions],
        trace.stop_uid,
        trace.start_time,
        trace.end_time,
        dataclasses.asdict(trace.timing),
        trace.control_events,
        trace.timing_packets,
        trace.truncated,
        trace.desync,
    ]


def step8_decode_digest(spec) -> str:
    """sha256 of the decoding of ``spec``'s first step-8 snapshots."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    (failing,) = client.find_runs(True, 1, start_seed=0)
    failing_uid = failing.failure.failing_uid
    decoded = []
    for i in range(REQUESTS):
        run = client.run_once(
            START_SEED + i, breakpoint_uids=(failing_uid,), breakpoint_skip=i % 7
        )
        snap = run.snapshot
        decoded.append(
            None
            if snap is None
            else [_thread(t) for _, t in sorted(snap.decode(module).items())]
        )
    return _sha(decoded)


def test_goldens_cover_the_corpus():
    assert set(GOLDENS) == {s.bug_id for s in all_bugs()}
    assert len(GOLDENS) == 67


@pytest.mark.parametrize("bug_id", sorted(GOLDENS), ids=lambda b: b.replace("/", "_"))
def test_step8_decode_unchanged(bug_id):
    spec = next(s for s in all_bugs() if s.bug_id == bug_id)
    assert step8_decode_digest(spec) == GOLDENS[bug_id], (
        f"{bug_id}: a breakpoint snapshot's decoding changed — if this is "
        "intentional, regenerate tests/pt/golden_step8_decode_digests.json "
        "(see module docstring)"
    )
