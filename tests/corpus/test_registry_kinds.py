"""Filtering the corpus by kind builds no module.

A templated bug's kind is a constant of its template
(``ALL_TEMPLATE_KINDS``), so ``bugs(kind=...)`` reads it without a
template call; the first template call checks the constant against the
ground truth it returns.
"""

import dataclasses

import pytest

import repro.corpus as corpus
import repro.corpus.registry as registry
from repro.corpus import _TemplatedBug, all_bugs, bug, bugs
from repro.errors import CorpusError

KINDS = ("order-violation", "atomicity-violation", "deadlock")


@pytest.fixture(scope="module")
def truth_kinds():
    """bug id -> its ground truth's kind, from the real registry."""
    return {spec.bug_id: spec.ground_truth.kind for spec in all_bugs()}


@pytest.fixture
def fresh_corpus(monkeypatch):
    """Every registered spec as an unresolved copy whose template counts
    its calls, registered in place of the real ones; returns the calls."""
    calls = []
    for pattern, template in list(corpus.ALL_TEMPLATES.items()):

        def counting(shape, template=template):
            calls.append(shape)
            return template(shape)

        monkeypatch.setitem(corpus.ALL_TEMPLATES, pattern, counting)
    fresh = {}
    for spec in all_bugs():
        origin = spec.workload.__self__
        templated = _TemplatedBug(origin.shape, origin.pattern)
        fresh[spec.bug_id] = dataclasses.replace(
            spec,
            builder=templated.build_module,
            workload=templated.workload,
            kind=templated.kind,
            truth_source=lambda templated=templated: templated.ground_truth,
            _module=None,
            _truth=None,
        )
    monkeypatch.setattr(registry, "_REGISTRY", fresh)
    return calls


def test_every_spec_kind_is_its_ground_truth_kind():
    for spec in all_bugs():
        assert spec.kind == spec.ground_truth.kind, spec.bug_id


def test_filtering_by_kind_calls_no_template(truth_kinds, fresh_corpus):
    truth, calls = truth_kinds, fresh_corpus
    assert len(truth) == 67
    for kind in KINDS:
        got = [spec.bug_id for spec in bugs(kind=kind)]
        assert set(got) == {bug_id for bug_id, k in truth.items() if k == kind}
        assert len(got) == len(set(got))
    assert calls == []
    assert all(spec._truth is None for spec in registry._REGISTRY.values())
    # every bug has one of the three kinds
    assert sum(len(bugs(kind=kind)) for kind in KINDS) == 67


def test_a_template_whose_truth_disagrees_with_its_kind_is_refused(monkeypatch):
    origin = bug("pbzip2-n/a").workload.__self__
    monkeypatch.setitem(corpus.ALL_TEMPLATE_KINDS, origin.pattern, "deadlock")
    templated = _TemplatedBug(origin.shape, origin.pattern)
    assert templated.kind == "deadlock"
    with pytest.raises(CorpusError, match="order-violation truth"):
        templated.build_module()
