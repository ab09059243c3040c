"""The dominator tree against the iterative set-based analysis it replaced.

``oracle_dominators`` is the verifier's former dominance analysis, kept
verbatim.  Dominance read from :class:`repro.ir.cfg.DominatorTree` — and
``cfg.dominators``, which derives its sets from the tree — must equal it
on every function of every corpus module and on seeded random CFGs with
loops, self-loops, unreachable blocks, several returns and branches into
another function and back.
"""

from __future__ import annotations

import random

from repro.corpus import all_bugs
from repro.ir import IRBuilder, Module
from repro.ir import verifier
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import DominatorTree, dominators, predecessors_map, reachable_blocks
from repro.ir.function import Function
from repro.ir.instructions import Br, CondBr, Ret
from repro.ir.types import I1, I64, VOID
from repro.ir.values import Constant

RANDOM_CFGS = 600


def oracle_dominators(fn: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """Classic iterative dominator analysis.

    Returns, for each reachable block, the set of blocks that dominate it
    (including itself).  Unreachable blocks are absent.  The verifier
    uses this to enforce SSA def-dominates-use for cross-block values.
    """
    reachable = reachable_blocks(fn)
    blocks_in_order = [b for b in fn.blocks if b in reachable]
    preds = predecessors_map(fn)
    dom: dict[BasicBlock, set[BasicBlock]] = {
        b: set(blocks_in_order) for b in blocks_in_order
    }
    dom[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for b in blocks_in_order:
            if b is fn.entry:
                continue
            block_preds = [p for p in preds[b] if p in reachable]
            if not block_preds:
                new = {b}
            else:
                new = set.intersection(*(dom[p] for p in block_preds)) | {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def assert_same_dominance(fn: Function) -> None:
    want = oracle_dominators(fn)
    assert dominators(fn) == want, fn.name
    tree = DominatorTree(fn)
    assert tree.reachable == set(want), fn.name
    for b in fn.blocks:
        for a in fn.blocks:
            assert tree.dominates(a, b) == (b in want and a in want[b]), (
                f"{fn.name}: {a.name} dom {b.name}"
            )


def test_corpus_functions_match_the_oracle():
    count = 0
    for spec in all_bugs():
        for fn in spec.fresh_module().functions.values():
            assert_same_dominance(fn)
            count += 1
    assert count > 5000


# -- random CFGs ---------------------------------------------------------------


def _terminate(block: BasicBlock, rng: random.Random, targets: list[BasicBlock]) -> None:
    roll = rng.random()
    if roll < 0.2:
        block.append(Ret())
    elif roll < 0.55:
        block.append(Br(rng.choice(targets)))
    else:
        block.append(CondBr(Constant(I1, 1), rng.choice(targets), rng.choice(targets)))


def random_cfg(seed: int) -> Function:
    """A void function of 1–12 blocks, each ending in a random ``ret``,
    ``br`` or ``cbr`` to any block (itself included).  In one CFG in
    four, one block instead branches to a helper function whose blocks
    branch on into either function."""
    rng = random.Random(seed)
    m = Module(f"cfg{seed}")
    fn = m.add_function("f", VOID, [])
    own = [fn.add_block(f"b{i}") for i in range(rng.randint(1, 12))]
    leaving = None
    if rng.random() < 0.25:
        g = m.add_function("g", VOID, [])
        other = [g.add_block(f"g{i}") for i in range(rng.randint(1, 3))]
        for block in other:
            _terminate(block, rng, own + other)
        leaving = rng.choice(own)
        leaving.append(Br(other[0]))
    for block in own:
        if block is not leaving:
            _terminate(block, rng, own)
    return fn


def _shape(fn: Function) -> set[str]:
    found = set()
    reachable = reachable_blocks(fn)
    returns = 0
    for block in fn.blocks:
        term = block.instructions[-1]
        succs = term.successors()
        returns += isinstance(term, Ret)
        if block in succs:
            found.add("self-loop")
        if block not in reachable:
            found.add("unreachable")
        if any(s.function is not fn for s in succs):
            found.add("leaves")
    if returns > 1:
        found.add("several returns")
    preds = predecessors_map(fn)
    if any(len(preds[b]) > 1 for b in fn.blocks):
        found.add("merge")
    return found


def test_random_cfgs_match_the_oracle():
    shapes = {"self-loop": 0, "unreachable": 0, "leaves": 0, "several returns": 0, "merge": 0}
    for seed in range(RANDOM_CFGS):
        fn = random_cfg(seed)
        assert_same_dominance(fn)
        for shape in _shape(fn):
            shapes[shape] += 1
    assert all(n >= 30 for n in shapes.values()), shapes


def test_tree_dominance_on_a_loop_with_two_exits():
    m = Module("t")
    fn = m.add_function("f", VOID, [])
    entry, head, body, out1, out2 = (fn.add_block(n) for n in ("e", "h", "b", "x1", "x2"))
    cond = Constant(I1, 1)
    entry.append(Br(head))
    head.append(CondBr(cond, body, out1))
    body.append(CondBr(cond, head, out2))
    out1.append(Ret())
    out2.append(Ret())
    tree = DominatorTree(fn)
    assert tree.dominates(head, out2) and tree.dominates(body, out2)
    assert not tree.dominates(body, head) and not tree.dominates(body, out1)
    assert tree.dominators(out2) == {entry, head, body, out2}


# -- when the verifier builds a tree -------------------------------------------


def _count_trees(monkeypatch) -> list[Function]:
    built: list[Function] = []

    class Counting(DominatorTree):
        __slots__ = ()

        def __init__(self, fn):
            built.append(fn)
            super().__init__(fn)

    monkeypatch.setattr(verifier, "DominatorTree", Counting)
    return built


def test_uses_of_entry_definitions_build_no_tree(monkeypatch):
    built = _count_trees(monkeypatch)
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", VOID, [("n", I64)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")) as iv:
        b.store(b.add(iv, 1), i)
    b.ret()
    m.finalize()
    assert built == []


def test_a_use_across_non_entry_blocks_builds_one_tree(monkeypatch):
    built = _count_trees(monkeypatch)
    m = Module("t")
    b = IRBuilder(m)
    fn = b.begin_function("f", VOID, [("n", I64)])
    i = b.alloca(I64, "i")
    body = b.add_block("body")
    b.br(body)
    b.position(body)
    v = b.load(i, "v")
    tail = b.add_block("tail")
    b.br(tail)
    b.position(tail)
    b.store(v, i)
    b.store(v, i)
    b.ret()
    m.finalize()
    assert built == [fn]


def test_corpus_modules_build_few_trees(monkeypatch):
    built = _count_trees(monkeypatch)
    functions = sum(len(s.fresh_module().functions) for s in all_bugs())
    assert 0 < len(built) < functions / 20
