"""Step-8 execution goldens: breakpoint-and-skip runs for every corpus bug.

Step 8 of Figure 2 re-executes the program with a breakpoint armed at
the failure PC until enough successful traces arrive; a cold corpus
pass makes thousands of these executions.  The flat-scheduler goldens
(``tests/corpus/test_flat_digests.py``) run untraced and the PT-stream
goldens (``tests/pt/test_stream_golden.py``) cover only each bug's
failing run, so neither sees a breakpoint fire mid-run or a skip count.

For all 67 bugs this pins the first 12 requests of the seed-0 cold
collection, exactly as ``_CollectionState.speculate`` issues them:
seed ``10_000 + i``, breakpoint at the failing run's failure PC, skip
``i % 7``.  Two sha256 digests per bug:

* ``executions`` — each run's outcome, virtual duration,
  ``instructions_executed``, per-thread ``ThreadStats`` and failure
  report;
* ``snapshots`` — each captured snapshot's buffers, stop positions and
  time (``None`` when the breakpoint never fired and the run succeeded).

Regenerate (only after an *intentional* change to execution or
tracing)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.corpus import all_bugs
    from tests.runtime.test_collection_golden import collection_digests
    digests = {s.bug_id: collection_digests(s) for s in all_bugs()}
    open("tests/runtime/golden_collection_digests.json", "w").write(
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

GOLDEN_PATH = Path(__file__).parent / "golden_collection_digests.json"
# absent only while the regeneration recipe imports this module
GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

REQUESTS = 12
START_SEED = 10_000


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _failure(report):
    if report is None:
        return None
    return [type(report).__name__, dataclasses.asdict(report)]


def collection_digests(spec) -> dict[str, str]:
    """Two sha256 digests of ``spec``'s first step-8 requests."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    (failing,) = client.find_runs(True, 1, start_seed=0)
    failing_uid = failing.failure.failing_uid
    executions, snapshots = [], []
    for i in range(REQUESTS):
        run = client.run_once(
            START_SEED + i, breakpoint_uids=(failing_uid,), breakpoint_skip=i % 7
        )
        result = run.result
        executions.append(
            [
                result.outcome,
                result.duration,
                result.instructions_executed,
                [
                    dataclasses.asdict(stats)
                    for _, stats in sorted(result.thread_stats.items())
                ],
                _failure(result.failure),
            ]
        )
        snap = run.snapshot
        snapshots.append(
            None
            if snap is None
            else [
                snap.reason,
                snap.time,
                [
                    [tid, snap.buffers[tid].hex(), snap.positions[tid]]
                    for tid in sorted(snap.buffers)
                ],
            ]
        )
    return {"executions": _sha(executions), "snapshots": _sha(snapshots)}


def test_goldens_cover_the_corpus():
    assert set(GOLDENS) == {s.bug_id for s in all_bugs()}
    assert len(GOLDENS) == 67


@pytest.mark.parametrize("bug_id", sorted(GOLDENS), ids=lambda b: b.replace("/", "_"))
def test_collection_runs_unchanged(bug_id):
    spec = next(s for s in all_bugs() if s.bug_id == bug_id)
    assert collection_digests(spec) == GOLDENS[bug_id], (
        f"{bug_id}: a step-8 execution or its snapshot changed — if this is "
        "intentional, regenerate tests/runtime/golden_collection_digests.json "
        "(see module docstring)"
    )
