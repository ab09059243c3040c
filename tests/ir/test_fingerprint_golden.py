"""Module fingerprint goldens for every corpus bug.

``module_fingerprint`` is the SHA-256 of the printed IR, and every
content-keyed cache and store tier keys on it: a printer change that
moves one byte of the text moves every stored key.  These goldens pin
the printed text of all 67 corpus modules byte for byte.

Regenerate (only after an *intentional* change to the printed IR)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.core.cache import module_fingerprint
    from repro.corpus import all_bugs
    fps = {s.bug_id: module_fingerprint(s.fresh_module()) for s in all_bugs()}
    open("tests/ir/golden_module_fingerprints.json", "w").write(
        json.dumps(fps, indent=2, sort_keys=True) + "\\n")
    EOF
"""

import json
from pathlib import Path

import pytest

from repro.core.cache import module_fingerprint
from repro.corpus import all_bugs

GOLDENS = json.loads(
    (Path(__file__).parent / "golden_module_fingerprints.json").read_text()
)


def test_goldens_cover_the_corpus():
    assert set(GOLDENS) == {s.bug_id for s in all_bugs()}
    assert len(GOLDENS) == 67


@pytest.mark.parametrize(
    "bug_id", sorted(GOLDENS), ids=lambda b: b.replace("/", "_")
)
def test_module_fingerprint_unchanged(bug_id):
    spec = next(s for s in all_bugs() if s.bug_id == bug_id)
    assert module_fingerprint(spec.fresh_module()) == GOLDENS[bug_id], (
        f"{bug_id}: the printed IR changed, which moves every cache and "
        "store key of this module — if this is intentional, regenerate "
        "tests/ir/golden_module_fingerprints.json (see module docstring)"
    )
