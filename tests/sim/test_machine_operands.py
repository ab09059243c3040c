"""Operand kinds, access faults and per-step checks of the hot classes.

Load, Store, BinOp, Cmp, CondBr, Br, Delay, Alloca and FieldAddr are
nearly all of what a corpus run executes.  Every operand they read is
one of six kinds: an instruction result, a function argument, a
constant, the null pointer, a global, or a function reference.  These
tests pin each class's result for each kind it can meet, the error an
undefined operand raises, the fault a bad pointer raises, and the
checks around every step (breakpoints, the step limit).

Kinds the text syntax cannot spell (a constant or function-reference
pointer, a result read before it is defined) are made by swapping an
operand after parsing, before the module is finalized without
verification.
"""

import operator

import pytest

from repro.errors import SimulationError
from repro.ir import parse_module
from repro.ir.types import I1, I64, PointerType
from repro.ir.values import Constant, FunctionRef, NullPointer
from repro.sim import Machine
from repro.sim.clock import CostModel
from repro.sim.memory import GuestFault, Memory
from repro.sim.scheduler import Scheduler

# ``target`` reads the operand under test; its ``result`` kind is the
# matching ``%r*`` instruction, its ``argument`` kind the parameter.
# ``main`` passes x = 7, p = @g (holding 5), s = @s (s.b holding 11)
# and c = true.
_TEMPLATE = """
module t
struct S {{ a: i64, b: i64 }}
global g: i64 = 5
global h: i64 = 0
global s: S
func target(x: i64, p: ptr<i64>, ps: ptr<S>, c: i1) -> i64 {{
entry:
  %slot = alloca i64
  %rx = add %x, 0
  %rp = cast %p to ptr<i64>
  %rs = cast %ps to ptr<S>
  %rc = cmp eq %x, 7
  br body
body:
{body}
}}
func main() -> i64 {{
entry:
  %sb = fieldaddr @s, b
  store 11, %sb
  %v = call @target(7, @g, @s, true)
  ret %v
}}
"""

KINDS = ("result", "argument", "constant", "null", "global", "function")


def _instr(module, name, fn="target"):
    return next(
        i for i in module.function(fn).instructions() if i.name == name
    )


def _operand(module, kind, role):
    """The ``kind`` operand for a position of ``role`` x/p/s/c."""
    fn = module.function("target")
    ptr_ty = PointerType(module.struct("S") if role == "s" else I64)
    global_name = {"p": "g", "s": "s"}.get(role, "g")
    if kind == "result":
        return _instr(module, "r" + role)
    if kind == "argument":
        return fn.param({"s": "ps"}.get(role, role))
    if kind == "constant":
        if role in ("p", "s"):
            # a literal address: where the global the argument names lives
            return Constant(ptr_ty, Machine(module).global_address(global_name))
        return Constant(I1, 1) if role == "c" else Constant(I64, 7)
    if kind == "null":
        return NullPointer(ptr_ty)
    if kind == "global":
        return module.global_var(global_name)
    return FunctionRef(module.function("main"))


def _run(body, swap=None):
    """Run ``target`` on ``body``; ``swap`` is (instr name or index,
    operand index, kind, role) naming the operand to replace."""
    module = parse_module(_TEMPLATE.format(body=body), finalize=False)
    module.finalize(verify=False)
    if swap is not None:
        where, index, kind, role = swap
        block = module.function("target").block("body")
        instr = (
            block.instructions[where]
            if isinstance(where, int)
            else _instr(module, where)
        )
        instr.operands[index] = _operand(module, kind, role)
    return module, Machine(module).run("main")


def _g_address():
    module = parse_module(_TEMPLATE.format(body="  ret 0"))
    return Machine(module).global_address("g")


def _value_of(kind):
    """What a value operand of ``kind`` evaluates to in ``target``."""
    if kind in ("result", "argument", "constant"):
        return 7
    if kind == "null":
        return 0
    if kind == "global":
        return _g_address()
    return None  # a FunctionRef: checked by type


# -- pointer positions ------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "body, swap_at, expect",
    [
        ("  %out = load %p\n  ret %out", ("out", 0), 5),
        ("  store 9, %p\n  %out = load @g\n  ret %out", (0, 1), 9),
    ],
    ids=["load", "store"],
)
def test_memory_access_through_each_pointer_kind(kind, body, swap_at, expect):
    module, r = _run(body, swap=(*swap_at, kind, "p"))
    block = module.function("target").block("body")
    if kind == "null":
        assert r.outcome == "crash" and r.failure.fault_kind == "null"
    elif kind == "function":
        assert r.outcome == "crash" and r.failure.fault_kind == "unmapped"
        assert "non-address pointer value" in r.failure.detail
        assert r.failure.failing_uid == block.instructions[0].uid
    else:
        assert r.outcome == "success", r.failure
        assert r.exit_value == expect


@pytest.mark.parametrize("kind", KINDS)
def test_fieldaddr_through_each_pointer_kind(kind):
    body = "  %f = fieldaddr %ps, b\n  %out = load %f\n  ret %out"
    module, r = _run(body, swap=("f", 0, kind, "s"))
    fieldaddr, load = module.function("target").block("body").instructions[:2]
    if kind == "null":
        # address arithmetic never faults: the dereference does
        assert r.outcome == "crash" and r.failure.fault_kind == "null"
        assert r.failure.failing_uid == load.uid
        assert r.failure.fault_address == 8
    elif kind == "function":
        assert r.outcome == "crash" and r.failure.fault_kind == "unmapped"
        assert r.failure.failing_uid == fieldaddr.uid
    else:
        assert r.outcome == "success", r.failure
        assert r.exit_value == 11


# -- value positions --------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_store_of_each_value_kind(kind):
    body = "  store %x, @h\n  %out = load @h\n  ret %out"
    _, r = _run(body, swap=(0, 0, kind, "x"))
    assert r.outcome == "success", r.failure
    if kind == "function":
        assert isinstance(r.exit_value, FunctionRef)
        assert r.exit_value.function.name == "main"
    else:
        assert r.exit_value == _value_of(kind)


@pytest.mark.parametrize("kind", ["result", "argument", "constant", "null", "global"])
@pytest.mark.parametrize("side", [0, 1], ids=["lhs", "rhs"])
@pytest.mark.parametrize(
    "op, fold",
    [
        ("add", lambda a, b: a + b),
        ("sub", lambda a, b: a - b),
        ("mul", lambda a, b: a * b),
        ("xor", lambda a, b: a ^ b),
    ],
    ids=["add", "sub", "mul", "xor"],
)
def test_binop_of_each_value_kind(kind, side, op, fold):
    operands = ["%x", "3"] if side == 0 else ["3", "%x"]
    body = f"  %out = {op} {operands[0]}, {operands[1]}\n  ret %out"
    _, r = _run(body, swap=("out", side, kind, "x"))
    value = _value_of(kind)
    expect = fold(value, 3) if side == 0 else fold(3, value)
    assert r.outcome == "success", r.failure
    assert r.exit_value == expect


@pytest.mark.parametrize("kind", ["result", "argument", "constant", "null", "global"])
@pytest.mark.parametrize("side", [0, 1], ids=["lhs", "rhs"])
@pytest.mark.parametrize("op", ["eq", "ne", "lt", "le", "gt", "ge"])
def test_cmp_of_each_value_kind(kind, side, op):
    operands = ["%x", "7"] if side == 0 else ["7", "%x"]
    body = (
        f"  %c2 = cmp {op} {operands[0]}, {operands[1]}\n"
        "  %out = cast %c2 to i64\n  ret %out"
    )
    _, r = _run(body, swap=("c2", side, kind, "x"))
    value = _value_of(kind)
    a, b = (value, 7) if side == 0 else (7, value)
    assert r.outcome == "success", r.failure
    assert r.exit_value == (1 if getattr(operator, op)(a, b) else 0)


@pytest.mark.parametrize(
    "kind, taken",
    [
        ("result", True),
        ("argument", True),
        ("constant", True),
        ("null", False),
        ("global", True),
        ("function", True),
    ],
)
def test_cond_branch_on_each_value_kind(kind, taken):
    body = "  cbr %c, yes, no\nyes:\n  ret 1\nno:\n  ret 2"
    _, r = _run(body, swap=(0, 0, kind, "c"))
    assert r.outcome == "success", r.failure
    assert r.exit_value == (1 if taken else 2)


@pytest.mark.parametrize("kind", ["result", "argument", "constant", "null", "global"])
def test_delay_of_each_value_kind(kind):
    body = "  delay %x\n  ret 0"
    _, base = _run("  delay 0\n  ret 0")
    _, r = _run(body, swap=(0, 0, kind, "x"))
    assert r.outcome == "success", r.failure
    assert r.duration - base.duration == _value_of(kind)


def test_alloca_and_br_cost_one_step_each():
    # every template run executes target's alloca and its br to body
    _, r = _run("  ret 0")
    assert r.outcome == "success"
    main_steps = 4  # fieldaddr, store, call, ret
    target_steps = 7  # alloca, add, cast, cast, cmp, br, ret
    assert r.instructions_executed == main_steps + target_steps
    assert r.thread_stats[1].branches == 1


# -- undefined values -------------------------------------------------------


@pytest.mark.parametrize(
    "body, swap_at",
    [
        ("  %out = load %p\n  ret %out", ("out", 0)),
        ("  store 9, %p\n  ret 0", (0, 1)),
        ("  store %x, @h\n  ret 0", (0, 0)),
        ("  %out = add %x, 1\n  ret %out", ("out", 0)),
        ("  %out = add 1, %x\n  ret %out", ("out", 1)),
        ("  %out = cmp eq %x, 1\n  ret 0", ("out", 0)),
        ("  %out = cmp eq 1, %x\n  ret 0", ("out", 1)),
        ("  cbr %c, yes, yes\nyes:\n  ret 0", (0, 0)),
        ("  delay %x\n  ret 0", (0, 0)),
        ("  %f = fieldaddr %ps, b\n  ret 0", ("f", 0)),
    ],
    ids=[
        "load", "store-pointer", "store-value", "binop-lhs", "binop-rhs",
        "cmp-lhs", "cmp-rhs", "cbr", "delay", "fieldaddr",
    ],
)
def test_undefined_value_read_raises(body, swap_at):
    module = parse_module(_TEMPLATE.format(body=body), finalize=False)
    module.finalize(verify=False)
    block = module.function("target").block("body")
    where, index = swap_at
    instr = block.instructions[where] if isinstance(where, int) else _instr(module, where)
    # main's call result is never defined in target's frame
    instr.operands[index] = _instr(module, "v", fn="main")
    with pytest.raises(SimulationError, match=r"^read of undefined value %v in target$"):
        Machine(module).run("main")


# -- faults through cached addresses -------------------------------------------


def _crash(src):
    module = parse_module(src)
    result = Machine(module).run("main")
    assert result.outcome == "crash"
    return module, result


def test_use_after_free_through_an_address_accessed_before_free():
    module, r = _crash(
        """
module t
func main() -> i64 {
entry:
  %p = malloc i64
  store 1, %p
  %a = load %p
  free %p
  %b = load %p
  ret %b
}
"""
    )
    assert r.failure.fault_kind == "use-after-free"
    assert r.failure.failing_uid == _instr(module, "b", fn="main").uid


def test_store_after_free_through_an_accessed_address():
    module, r = _crash(
        """
module t
func main() -> i64 {
entry:
  %p = malloc i64
  %a = load %p
  free %p
  store 2, %p
  ret 0
}
"""
    )
    assert r.failure.fault_kind == "use-after-free"
    store = module.function("main").entry.instructions[3]
    assert r.failure.failing_uid == store.uid


def test_stack_slot_read_after_its_frame_popped():
    module, r = _crash(
        """
module t
func leak() -> ptr<i64> {
entry:
  %slot = alloca i64
  store 3, %slot
  %v = load %slot
  ret %slot
}
func main() -> i64 {
entry:
  %p = call @leak()
  %v = load %p
  ret %v
}
"""
    )
    assert r.failure.fault_kind == "use-after-free"
    assert r.failure.failing_uid == _instr(module, "v", fn="main").uid


def test_misaligned_access_to_an_accessed_object():
    module, r = _crash(
        """
module t
func main() -> i64 {
entry:
  %p = malloc i64, 2
  store 1, %p
  %a = load %p
  %i = cast %p to i64
  %j = add %i, 4
  %q = cast %j to ptr<i64>
  %b = load %q
  ret %b
}
"""
    )
    assert r.failure.fault_kind == "oob"
    assert "misaligned" in r.failure.detail
    assert r.failure.failing_uid == _instr(module, "b", fn="main").uid


def test_memory_checks_keep_their_order_after_an_address_is_cached():
    mem = Memory()
    obj = mem.allocate(16, "heap", 1, I64)
    mem.write_word(obj.base, 4)
    assert mem.read_word(obj.base) == 4
    for _ in range(2):  # the second round finds every address cached
        with pytest.raises(GuestFault) as err:
            mem.read_word(obj.base + 3)
        assert err.value.kind == "oob"
        with pytest.raises(GuestFault) as err:
            mem.read_word(8)
        assert err.value.kind == "null"
        with pytest.raises(GuestFault) as err:
            mem.read_word(obj.end)
        assert err.value.kind == "unmapped"
    mem.free(obj.base)
    for address in (obj.base, obj.base + 8):
        with pytest.raises(GuestFault) as err:
            mem.read_word(address)
        assert err.value.kind == "use-after-free"
        with pytest.raises(GuestFault) as err:
            mem.write_word(address, 1)
        assert err.value.kind == "use-after-free"
    # use-after-free is reported before misalignment
    with pytest.raises(GuestFault) as err:
        mem.check_access(obj.base + 3)
    assert err.value.kind == "use-after-free"


# -- per-step checks ----------------------------------------------------------


class _OneLongQuantum(Scheduler):
    def pick(self, runnable):
        return runnable[0], 1000


_STRAIGHT = """
module t
func main() -> i64 {
entry:
  %a = add 1, 2
  %b = add %a, 3
  %c = add %b, 4
  ret %c
}
"""


def test_breakpoint_fires_mid_quantum_before_its_instruction():
    module = parse_module(_STRAIGHT)
    machine = Machine(module, scheduler=_OneLongQuantum())
    target = _instr(module, "c", fn="main")
    seen = []

    def hit(m, thread, instr):
        seen.append(
            (
                instr.uid,
                m.thread_positions(),
                m.clock.now,
                m.stats[thread.tid].instructions,
            )
        )
        m.breakpoints.pop(instr.uid)

    machine.breakpoints[target.uid] = hit
    result = machine.run("main")
    assert result.exit_value == 10
    # two binops (1 ns each) ran before it; it has not run yet
    assert seen == [(target.uid, {1: target.uid}, 2, 2)]


def test_breakpoint_that_stays_armed_fires_every_visit():
    module = parse_module(
        """
module t
func main() -> i64 {
entry:
  %i = alloca i64
  store 0, %i
  br loop
loop:
  %v = load %i
  %n = add %v, 1
  store %n, %i
  %c = cmp lt %n, 5
  cbr %c, loop, done
done:
  ret %n
}
"""
    )
    machine = Machine(module, scheduler=_OneLongQuantum())
    target = _instr(module, "n", fn="main")
    times = []
    machine.breakpoints[target.uid] = lambda m, t, i: times.append(m.clock.now)
    result = machine.run("main")
    assert result.exit_value == 5
    assert len(times) == 5
    assert times == sorted(set(times))


def test_step_limit_raised_at_exactly_one_past_max_steps():
    module = parse_module(_STRAIGHT)
    done = Machine(module, max_steps=4).run("main")
    assert done.outcome == "success"
    assert done.instructions_executed == 4
    stopped = Machine(module, max_steps=3).run("main")
    assert stopped.outcome == "step-limit"
    assert stopped.instructions_executed == 4
    # the step over the limit never executed
    assert stopped.thread_stats[1].instructions == 3
    assert stopped.duration == 3


def test_negative_cost_is_rejected():
    module = parse_module(_STRAIGHT)
    with pytest.raises(ValueError):
        Machine(module, cost_model=CostModel(overrides={"binop": -1})).run("main")
