"""The templated-bug registry guard: one template call per spec, no
module kept behind it, and a race on first use that ends in one state."""

import dataclasses
import gc
import sys
import threading
import types

import pytest

import repro.corpus as corpus
from repro.corpus import _TemplatedBug, bug
from repro.ir.module import Module

BUG_ID = "pbzip2-n/a"


@pytest.fixture
def counted(monkeypatch):
    """A fresh, unregistered copy of one spec whose template counts its
    calls; returns ``(spec, templated, calls)``."""
    source = bug(BUG_ID)
    origin = source.workload.__self__
    template = corpus.ALL_TEMPLATES[origin.pattern]
    calls = []

    def counting(shape):
        calls.append(shape)
        return template(shape)

    monkeypatch.setitem(corpus.ALL_TEMPLATES, origin.pattern, counting)
    templated = _TemplatedBug(origin.shape, origin.pattern)
    spec = dataclasses.replace(
        source,
        builder=templated.build_module,
        workload=templated.workload,
        truth_source=lambda: templated.ground_truth,
        _module=None,
        _truth=None,
    )
    return spec, templated, calls


def _reachable_modules(root) -> list[Module]:
    """Every Module reachable from ``root`` through instance state and
    closures (not through classes, modules or function globals, which
    reach the whole program)."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Module):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))
    return found


def test_one_template_call_serves_module_workload_and_truth(counted):
    spec, _, calls = counted
    module = spec.fresh_module()
    assert len(calls) == 1
    workloads = [spec.workload(seed) for seed in range(3)]
    truth = spec.ground_truth
    assert len(calls) == 1
    assert truth.resolve(module) == bug(BUG_ID).target_uids()
    assert workloads == [bug(BUG_ID).workload(seed) for seed in range(3)]


def test_every_build_is_fresh(counted):
    spec, _, calls = counted
    first, second = spec.fresh_module(), spec.fresh_module()
    assert first is not second
    assert len(calls) == 2


def test_no_module_is_kept(counted):
    spec, templated, _ = counted
    spec.workload(0)
    spec.ground_truth
    module = spec.fresh_module()
    assert _reachable_modules(templated) == []
    # the walk does find a module where one is held
    assert _reachable_modules({"held": module}) == [module]


def test_racing_first_use_ends_in_one_state(counted):
    spec, _, calls = counted
    start = threading.Barrier(8, timeout=60)
    got = [None] * 8

    def first_use(index):
        start.wait()
        got[index] = (spec.workload(index % 2), spec.ground_truth)

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert {w for w, _ in got[0::2]} == {spec.workload(0)}
    assert {w for w, _ in got[1::2]} == {spec.workload(1)}
    assert all(truth == got[0][1] for _, truth in got)
