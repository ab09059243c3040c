"""PT-stream goldens: every corpus bug's failing-run trace, byte for byte.

The flat-scheduler goldens (``tests/corpus/test_flat_digests.py``) run
with tracing off, so they never see a packet.  These pin the traced
path end to end for all 67 bugs: the first failing run at seed 0 (the
one every diagnosis starts from) must keep

* its snapshot buffers and stop positions,
* each thread's ``EncoderStats``,
* its traced virtual ``duration`` and ``instructions_executed`` (the
  charged tracing overhead feeds both), and
* each decoded thread's ``(uid, t_lo, t_hi)`` list, ``timing_packets``,
  ``max_timing_gap()``, ``start_time`` and ``end_time``.

Any change to how the encoder lays out packets, what it charges, or how
the decoder reads them flips at least one of the four digests per bug.

Regenerate (only after an *intentional* change to the trace format)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.corpus import all_bugs
    from tests.pt.test_stream_golden import pt_stream_digests
    digests = {s.bug_id: pt_stream_digests(s) for s in all_bugs()}
    open("tests/pt/golden_pt_digests.json", "w").write(
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

GOLDEN_PATH = Path(__file__).parent / "golden_pt_digests.json"
# absent only while the regeneration recipe imports this module
GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def pt_stream_digests(spec) -> dict[str, str]:
    """Four sha256 digests of ``spec``'s first failing traced run."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    (run,) = client.find_runs(True, 1, start_seed=0)
    snap = run.snapshot
    tids = sorted(snap.buffers)
    decoded = snap.decode(module)
    return {
        "buffers": _sha(
            [[tid, snap.buffers[tid].hex(), snap.positions[tid]] for tid in tids]
        ),
        "stats": _sha(
            [
                [tid, dataclasses.asdict(stats)]
                for tid, stats in sorted(run.driver.stats().items())
            ]
        ),
        "run": _sha([run.result.duration, run.result.instructions_executed]),
        "decoded": _sha(
            [
                [
                    tid,
                    [[d.uid, d.t_lo, d.t_hi] for d in t.instructions],
                    t.timing_packets,
                    t.max_timing_gap(),
                    t.start_time,
                    t.end_time,
                ]
                for tid, t in sorted(decoded.items())
            ]
        ),
    }


def test_goldens_cover_the_corpus():
    assert set(GOLDENS) == {s.bug_id for s in all_bugs()}
    assert len(GOLDENS) == 67


@pytest.mark.parametrize("bug_id", sorted(GOLDENS), ids=lambda b: b.replace("/", "_"))
def test_pt_stream_unchanged(bug_id):
    spec = next(s for s in all_bugs() if s.bug_id == bug_id)
    assert pt_stream_digests(spec) == GOLDENS[bug_id], (
        f"{bug_id}: the failing run's PT stream or its decoding changed — if "
        "this is intentional, regenerate tests/pt/golden_pt_digests.json "
        "(see module docstring)"
    )
