"""Verifier verdict goldens: the first error reported for a module.

``golden_verifier_verdicts.json`` maps a case name to ``"ok"`` or the
exact text of the first error ``verify_module`` raises for it (an
``IRError`` that is not a ``VerifierError`` is stored with an
``"IRError: "`` prefix).  The cases are

* one hand-built module per verifier rule (``RULE_CASES``), plus the
  edge cases of dominance: uses in unreachable blocks, definitions in
  unreachable blocks, and blocks reached only through a branch into
  another function;
* seeded mutations of corpus functions (``mutation_cases``): two
  instructions of a block swapped, a definition moved into a sibling
  branch, a branch retargeted (to a block of the same function or, one
  time in four, of another one), and a dropped terminator.

Every mutation is undone after its verdict is read, and the undone
module must verify again.

Regenerate (only after an *intentional* change to a verifier rule or
message)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.ir.test_verifier_golden import all_verdicts
    open("tests/ir/golden_verifier_verdicts.json", "w").write(
        json.dumps(all_verdicts(), indent=2, sort_keys=True) + "\\n")
    EOF
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.corpus import all_bugs
from repro.errors import IRError, VerifierError
from repro.ir import IRBuilder, Module
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Alloca, Br, CondBr, Malloc, Ret
from repro.ir.types import I1, I64, VOID, PointerType
from repro.ir.values import Constant, FunctionRef
from repro.ir.verifier import verify_module

GOLDEN_PATH = Path(__file__).parent / "golden_verifier_verdicts.json"

MUTATIONS_PER_KIND = 2


def verdict(module: Module) -> str:
    try:
        verify_module(module)
    except VerifierError as exc:
        return str(exc)
    except IRError as exc:
        return f"IRError: {exc}"
    return "ok"


# -- one module per rule ------------------------------------------------------


def _void_fn(m: Module, name: str = "f", params=()):
    b = IRBuilder(m)
    fn = b.begin_function(name, VOID, list(params))
    return b, fn


def _valid_diamond() -> Module:
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [("n", I64)])
    out = b.alloca(I64, "out")
    cond = b.cmp("gt", b.param("n"), 0)
    with b.if_else(cond) as otherwise:
        b.store(1, out)
        with otherwise:
            b.store(2, out)
    b.ret(b.load(out))
    return m


def _valid_loop() -> Module:
    m = Module("t")
    b, _ = _void_fn(m, params=[("n", I64)])
    i = b.alloca(I64, "i")
    acc = b.alloca(I64, "acc")
    start = b.load(acc, "start")  # entry value used inside the loop
    with b.for_range(i, 0, b.param("n")) as iv:
        b.store(b.add(iv, start), acc)
    b.ret()
    return m


def _no_blocks() -> Module:
    m = Module("t")
    m.add_function("f", VOID, [])
    return m


def _empty_block() -> Module:
    m = Module("t")
    b, fn = _void_fn(m)
    b.ret()
    fn.add_block("dead")
    return m


def _missing_terminator() -> Module:
    m = Module("t")
    b, _ = _void_fn(m)
    b.alloca(I64, "x")
    return m


def _terminator_mid_block() -> Module:
    m = Module("t")
    b, fn = _void_fn(m)
    b.alloca(I64, "x")
    entry = fn.entry
    early = Ret()
    early.parent = entry
    entry.instructions.insert(0, early)
    b.ret()
    return m


def _operand_of_another_function() -> Module:
    m = Module("t")
    b, _ = _void_fn(m, "g")
    slot = b.alloca(I64, "slot")
    b.ret()
    b, _ = _void_fn(m, "f")
    b.load(slot, "v")
    b.ret()
    return m


def _use_before_definition() -> Module:
    m = Module("t")
    b, fn = _void_fn(m)
    slot = b.alloca(I64, "slot")
    b.load(slot, "v")
    b.ret()
    entry = fn.entry
    entry.instructions[0], entry.instructions[1] = (
        entry.instructions[1],
        entry.instructions[0],
    )
    return m


def _non_dominating_use() -> Module:
    m = Module("t")
    b, _ = _void_fn(m, params=[("c", I64)])
    slot = b.alloca(I64, "slot")
    cond = b.cmp("gt", b.param("c"), 0)
    loaded = None
    with b.if_then(cond):
        loaded = b.load(slot, "v")
    b.store(loaded, slot)
    b.ret()
    return m


def _definition_in_unreachable_block() -> Module:
    m = Module("t")
    b, fn = _void_fn(m)
    slot = b.alloca(I64, "slot")
    body = b.add_block("body")
    b.br(body)
    dead = b.add_block("dead")
    b.position(dead)
    loaded = b.load(slot, "v")
    b.br(body)
    b.position(body)
    b.store(loaded, slot)
    b.ret()
    return m


def _use_in_unreachable_block() -> Module:
    """A use in an unreachable block is not checked for dominance."""
    m = Module("t")
    b, _ = _void_fn(m, params=[("c", I64)])
    slot = b.alloca(I64, "slot")
    cond = b.cmp("gt", b.param("c"), 0)
    loaded = None
    with b.if_then(cond):
        loaded = b.load(slot, "v")
    b.ret()
    dead = b.add_block("dead")
    b.position(dead)
    b.store(loaded, slot)
    b.ret()
    return m


def _foreign_argument() -> Module:
    m = Module("t")
    b, g = _void_fn(m, "g", [("p", PointerType(I64))])
    b.ret()
    b, _ = _void_fn(m, "f")
    b.load(g.params[0], "v")
    b.ret()
    return m


def _foreign_global() -> Module:
    other = Module("other")
    g = other.add_global("shared", I64)
    m = Module("t")
    m.add_global("shared", I64)
    b, _ = _void_fn(m)
    b.load(g, "v")
    b.ret()
    return m


def _foreign_function_reference() -> Module:
    other = Module("other")
    ob, callee = _void_fn(other, "worker")
    ob.ret()
    m = Module("t")
    mb, _ = _void_fn(m, "worker")
    mb.ret()
    b, _ = _void_fn(m)
    b.call(FunctionRef(callee))
    b.ret()
    return m


def _cross_function_br() -> Module:
    m = Module("t")
    gb, g = _void_fn(m, "g")
    gb.ret()
    b, _ = _void_fn(m)
    b.br(g.entry)
    return m


def _cross_function_cbr() -> Module:
    m = Module("t")
    gb, g = _void_fn(m, "g")
    gb.ret()
    b, _ = _void_fn(m, params=[("c", I64)])
    own = b.add_block("own")
    cond = b.cmp("gt", b.param("c"), 0)
    b.cbr(cond, own, g.entry)
    b.position(own)
    b.ret()
    return m


def _foreign_entry_root() -> Module:
    """``f.b`` is reached only through ``g``; the verifier checks it
    with ``f.b`` as its own dominance root, before it reaches the
    cross-function branch in ``f.c``."""
    m = Module("t")
    b, f = _void_fn(m)
    slot = b.alloca(I64, "slot")
    loaded = b.load(slot, "v")
    blk_b = b.add_block("b")
    blk_c = b.add_block("c")
    b.br(blk_c)
    gb, g = _void_fn(m, "g")
    gb.br(blk_b)
    b.position(blk_b)
    b.store(loaded, slot)
    b.ret()
    b.position(blk_c)
    b.br(g.entry)
    return m


def _foreign_entered_cycle(definition_reachable: bool) -> Module:
    """``f.b`` and ``f.b2`` form a cycle entered only through ``g``."""
    m = Module("t")
    b, f = _void_fn(m)
    slot = b.alloca(I64, "slot")
    loaded = b.load(slot, "v") if definition_reachable else None
    blk_b = b.add_block("b")
    blk_b2 = b.add_block("b2")
    blk_c = b.add_block("c")
    b.br(blk_c)
    if not definition_reachable:
        dead = b.add_block("dead")
        b.position(dead)
        loaded = b.load(slot, "v")
        b.br(blk_b)
    gb, g = _void_fn(m, "g")
    gb.br(blk_b)
    b.position(blk_b)
    b.store(loaded, slot)
    b.br(blk_b2)
    b.position(blk_b2)
    b.br(blk_b)
    b.position(blk_c)
    b.br(g.entry)
    return m


def _cross_function_branch_to_unterminated_block() -> Module:
    m = Module("t")
    b, _ = _void_fn(m)
    g = m.add_function("g", VOID, [])
    target = g.add_block("entry")
    b.br(target)
    return m


def _opaque_alloca() -> Module:
    m = Module("t")
    opaque = m.add_struct("Handle")
    b, fn = _void_fn(m)
    fn.entry.append(Alloca(opaque, "h"))
    b.ret()
    return m


def _opaque_malloc() -> Module:
    m = Module("t")
    opaque = m.add_struct("Handle")
    b, fn = _void_fn(m)
    fn.entry.append(Malloc(opaque, None, "h"))
    b.ret()
    return m


def _ret_without_value() -> Module:
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [])
    b.ret()
    return m


def _ret_type_mismatch() -> Module:
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [])
    b.ret(Constant(I1, 1))
    return m


RULE_CASES: dict[str, Callable[[], Module]] = {
    "ok/diamond": _valid_diamond,
    "ok/loop": _valid_loop,
    "ok/use-in-unreachable-block": _use_in_unreachable_block,
    "rule/no-blocks": _no_blocks,
    "rule/empty-block": _empty_block,
    "rule/missing-terminator": _missing_terminator,
    "rule/terminator-mid-block": _terminator_mid_block,
    "rule/operand-of-another-function": _operand_of_another_function,
    "rule/use-before-definition": _use_before_definition,
    "rule/non-dominating-use": _non_dominating_use,
    "rule/definition-in-unreachable-block": _definition_in_unreachable_block,
    "rule/foreign-argument": _foreign_argument,
    "rule/foreign-global": _foreign_global,
    "rule/foreign-function-reference": _foreign_function_reference,
    "rule/cross-function-br": _cross_function_br,
    "rule/cross-function-cbr": _cross_function_cbr,
    "rule/cross-function-entered-root": _foreign_entry_root,
    "rule/cross-function-entered-cycle": lambda: _foreign_entered_cycle(True),
    "rule/cross-function-entered-cycle-dead-def": lambda: _foreign_entered_cycle(False),
    "rule/cross-function-unterminated-target": _cross_function_branch_to_unterminated_block,
    "rule/opaque-alloca": _opaque_alloca,
    "rule/opaque-malloc": _opaque_malloc,
    "rule/ret-without-value": _ret_without_value,
    "rule/ret-type-mismatch": _ret_type_mismatch,
}


# -- seeded mutations of corpus functions -------------------------------------


def _blocks(module: Module) -> list[BasicBlock]:
    return [b for fn in module.functions.values() for b in fn.blocks]


def _swap(module: Module, rng: random.Random):
    block = rng.choice([b for b in _blocks(module) if len(b.instructions) >= 2])
    instrs = block.instructions
    i, j = sorted(rng.sample(range(len(instrs)), 2))
    instrs[i], instrs[j] = instrs[j], instrs[i]

    def undo() -> None:
        instrs[i], instrs[j] = instrs[j], instrs[i]

    return undo


def _move_to_sibling(module: Module, rng: random.Random):
    pairs = [
        (t.then_block, t.else_block)
        for b in _blocks(module)
        for t in [b.instructions[-1]]
        if isinstance(t, CondBr)
        and t.then_block is not t.else_block
        and len(t.then_block.instructions) >= 2
    ]
    source, sibling = rng.choice(pairs)
    if rng.random() < 0.5:
        source, sibling = sibling, source
    if len(source.instructions) < 2:
        source, sibling = sibling, source
    i = rng.randrange(len(source.instructions) - 1)
    j = rng.randrange(len(sibling.instructions))
    instr = source.instructions.pop(i)
    sibling.instructions.insert(j, instr)
    instr.parent = sibling

    def undo() -> None:
        sibling.instructions.pop(j)
        source.instructions.insert(i, instr)
        instr.parent = source

    return undo


def _retarget(module: Module, rng: random.Random):
    branches = [
        b.instructions[-1]
        for b in _blocks(module)
        if isinstance(b.instructions[-1], (Br, CondBr))
    ]
    term = rng.choice(branches)
    fn = term.parent.function
    others = [f for f in module.functions.values() if f is not fn]
    pool = fn.blocks
    if others and rng.random() < 0.25:
        pool = rng.choice(others).blocks
    new = rng.choice(pool)
    attr = "target" if isinstance(term, Br) else rng.choice(["then_block", "else_block"])
    old = getattr(term, attr)
    setattr(term, attr, new)

    def undo() -> None:
        setattr(term, attr, old)

    return undo


def _drop_terminator(module: Module, rng: random.Random):
    block = rng.choice(_blocks(module))
    term = block.instructions.pop()

    def undo() -> None:
        block.instructions.append(term)

    return undo


MUTATORS = {
    "swap": _swap,
    "move-to-sibling": _move_to_sibling,
    "retarget": _retarget,
    "drop-terminator": _drop_terminator,
}


def mutation_cases() -> Iterator[tuple[str, str]]:
    """``(name, verdict)`` for every seeded mutation of every corpus
    bug's module; each mutation is undone before the next one."""
    for spec in all_bugs():
        module = spec.fresh_module()
        for kind, mutate in MUTATORS.items():
            for n in range(MUTATIONS_PER_KIND):
                rng = random.Random(f"{spec.bug_id}/{kind}/{n}")
                undo = mutate(module, rng)
                yield f"{spec.bug_id}/{kind}/{n}", verdict(module)
                undo()
                assert verdict(module) == "ok", f"{spec.bug_id}/{kind}/{n} undo"


def all_verdicts() -> dict[str, str]:
    out = {name: verdict(build()) for name, build in RULE_CASES.items()}
    out.update(mutation_cases())
    return out


GOLDENS = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_case_verdict(name):
    assert verdict(RULE_CASES[name]()) == GOLDENS[name]


def test_mutation_verdicts():
    got = dict(mutation_cases())
    want = {k: v for k, v in GOLDENS.items() if k not in RULE_CASES}
    assert len(got) == len(all_bugs()) * len(MUTATORS) * MUTATIONS_PER_KIND
    assert got == want


def test_goldens_cover_every_rule_message():
    """Every message shape of the verifier appears among the goldens."""
    shapes = [
        "has no blocks",
        "empty block in",
        "block does not end in a terminator",
        "not at block end",
        "belongs to another function",
        "before definition",
        "does not dominate its use",
        "of another function used in",
        "foreign global",
        "foreign function",
        "branch to block",
        "allocation of opaque struct",
        "ret without value",
        "ret type mismatch",
        "IRError: ",
    ]
    values = list(GOLDENS.values())
    for shape in shapes:
        assert any(shape in v for v in values), shape
    assert "ok" in values
