"""Builder API, module finalization, uid assignment."""

import pytest

from repro.errors import IRError
from repro.ir import IRBuilder, Module
from repro.ir.types import I64, VOID, ptr


def _simple_module():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("main", VOID, [])
    slot = b.alloca(I64, "x")
    b.store(41, slot)
    v = b.load(slot)
    b.store(b.add(v, 1), slot)
    b.ret()
    return m, b


def test_finalize_assigns_unique_uids():
    m, _ = _simple_module()
    m.finalize()
    uids = [i.uid for i in m.instructions()]
    assert len(uids) == len(set(uids))
    assert all(u > 0 for u in uids)
    # block_index set and consistent
    for i in m.instructions():
        assert i.parent.instructions[i.block_index] is i


def test_finalize_idempotent():
    m, _ = _simple_module()
    m.finalize()
    first = [i.uid for i in m.instructions()]
    m.finalize()
    assert [i.uid for i in m.instructions()] == first


def test_instruction_lookup_by_uid():
    m, _ = _simple_module()
    m.finalize()
    for i in m.instructions():
        assert m.instruction(i.uid) is i
    with pytest.raises(IRError):
        m.instruction(10**9)


def test_uid_lookup_refuses_other_kinds_and_out_of_range():
    m, _ = _simple_module()
    m.add_global("g", I64)
    m.finalize()
    block = m.function("main").entry
    last = max(i.uid for i in m.instructions())
    not_instructions = [0, -1, -last, m.global_var("g").uid, block.uid, last + 1]
    for uid in not_instructions:
        assert m.instruction_or_none(uid) is None
        with pytest.raises(IRError, match=f"no instruction uid={uid}"):
            m.instruction(uid)
    assert m.block(block.uid) is block
    for uid in [0, -1, -block.uid, m.global_var("g").uid, block.uid + 1, last + 1]:
        with pytest.raises(IRError, match=f"no block uid={uid}"):
            m.block(uid)


def test_unfinalized_lookup_rejected():
    m, _ = _simple_module()
    with pytest.raises(IRError):
        m.instruction(1)


def test_duplicate_names_rejected():
    m = Module("t")
    m.add_struct("S", [("x", I64)])
    with pytest.raises(IRError):
        m.add_struct("S", [("y", I64)])
    m.add_global("g", I64)
    with pytest.raises(IRError):
        m.add_global("g", I64)
    m.add_function("f", VOID, [])
    with pytest.raises(IRError):
        m.add_function("f", VOID, [])


def test_builder_if_else():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [("n", I64)])
    out = b.alloca(I64, "out")
    big = b.cmp("gt", b.param("n"), 10)
    with b.if_else(big) as otherwise:
        b.store(1, out)
        with otherwise:
            b.store(2, out)
    b.ret(b.load(out))
    m.finalize()
    fn = m.function("f")
    # entry + then + else + endif = 4 blocks
    assert len(fn.blocks) == 4


def test_builder_if_else_requires_else_arm():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", VOID, [])
    cond = b.cmp("eq", b.i64(1), 1)
    with pytest.raises(IRError):
        with b.if_else(cond):
            pass  # never enters the else arm
    del m


def test_builder_while_loop():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [("n", I64)])
    i = b.alloca(I64, "i")
    b.store(0, i)

    def cond():
        return b.cmp("lt", b.load(i), b.param("n"))

    with b.while_(cond):
        b.store(b.add(b.load(i), 1), i)
    b.ret(b.load(i))
    m.finalize()
    assert m.function("f").blocks  # builds and verifies


def test_builder_for_range_yields_induction_value():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", I64, [])
    acc = b.alloca(I64, "acc")
    b.store(0, acc)
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, 5) as iv:
        b.store(b.add(b.load(acc), iv), acc)
    b.ret(b.load(acc))
    m.finalize()
    from repro.sim import Machine

    result = Machine(m).run("f")
    assert result.exit_value == 0 + 1 + 2 + 3 + 4


def test_builder_location_scoping():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", VOID, [])
    with b.at_location("x.c", 7):
        s = b.alloca(I64)
    outside = b.alloca(I64)
    b.ret()
    assert s.loc is not None and s.loc.line == 7
    assert outside.loc is None


def test_store_literal_coercion():
    m = Module("t")
    b = IRBuilder(m)
    b.begin_function("f", VOID, [])
    slot = b.alloca(I64)
    b.store(5, slot)  # literal coerced to i64
    b.ret()
    m.finalize()


def test_instruction_count():
    m, _ = _simple_module()
    m.finalize()
    assert m.instruction_count() == 6  # alloca, store, load, add, store, ret
