"""The e2e stage's store differential: a second diagnosis over fresh
in-memory LRUs may only hit through the store, so a trace tier that
never reads the store must trip ``store-hydrates``."""

import pytest

from repro.check.cases import CheckCase
from repro.check.invariants import InvariantViolation
from repro.check.stages import STAGES, run_e2e

SEED = 0


def _store_only_case():
    # the other differentials and the solver cross-check have their
    # own coverage; switching them off keeps this case to the store
    params = dict(STAGES["e2e"].defaults)
    params.update(solver_diff=0, cache_check=0, wire_check=0, store_check=1)
    return CheckCase("e2e", SEED, params)


def test_store_differential_passes_on_working_code():
    run_e2e(_store_only_case())


def test_store_differential_catches_a_trace_cache_that_never_reads_the_store(
    monkeypatch,
):
    from repro.core.cache import DecodedTraceCache
    from repro.store import PersistentTraceCache

    # memory only: every miss falls through to a fresh decode, while
    # put still writes through, so the store fills but is never read
    monkeypatch.setattr(PersistentTraceCache, "get", DecodedTraceCache.get)
    with pytest.raises(InvariantViolation) as excinfo:
        run_e2e(_store_only_case())
    assert excinfo.value.invariant == "store-hydrates"
