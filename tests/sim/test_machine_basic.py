"""Sequential interpreter semantics: arithmetic, control flow, calls."""

import gc
import weakref

import pytest

from repro.errors import SimulationError, StepLimitExceeded
from repro.ir import parse_module
from repro.ir.instructions import Instruction
from repro.ir.types import VOID
from repro.pt import PTDriver
from repro.sim import Machine
from repro.sim.clock import CostModel


def run(src, entry="main", args=(), **kw):
    m = parse_module(src)
    return Machine(m, **kw).run(entry, args)


def test_arithmetic_and_return():
    r = run(
        """
module t
func main() -> i64 {
entry:
  %a = add 2, 3
  %b = mul %a, 4
  %c = sub %b, 1
  %d = div %c, 2
  %e = mod %d, 4
  ret %e
}
"""
    )
    assert r.outcome == "success"
    assert r.exit_value == ((2 + 3) * 4 - 1) // 2 % 4


def test_bitwise_ops():
    r = run(
        """
module t
func main() -> i64 {
entry:
  %a = and 12, 10
  %b = or %a, 1
  %c = xor %b, 255
  %d = shl %c, 2
  %e = shr %d, 1
  ret %e
}
"""
    )
    assert r.exit_value == ((((12 & 10) | 1) ^ 255) << 2) >> 1


def test_loop_sums():
    r = run(
        """
module t
func main(n: i64) -> i64 {
entry:
  %acc = alloca i64
  %i = alloca i64
  store 0, %acc
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = cmp lt %iv, %n
  cbr %c, body, done
body:
  %a = load %acc
  store %a, %acc
  %a2 = add %a, %iv
  store %a2, %acc
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %r = load %acc
  ret %r
}
""",
        args=(10,),
    )
    assert r.exit_value == sum(range(10))


def test_calls_and_recursion():
    r = run(
        """
module t
func fib(n: i64) -> i64 {
entry:
  %c = cmp lt %n, 2
  cbr %c, base, rec
base:
  ret %n
rec:
  %n1 = sub %n, 1
  %n2 = sub %n, 2
  %a = call @fib(%n1)
  %b = call @fib(%n2)
  %s = add %a, %b
  ret %s
}
func main() -> i64 {
entry:
  %r = call @fib(10)
  ret %r
}
"""
    )
    assert r.exit_value == 55


def test_indirect_call_through_global():
    r = run(
        """
module t
global g_handler: fn(i64) -> i64
func double(x: i64) -> i64 {
entry:
  %r = mul %x, 2
  ret %r
}
func main() -> i64 {
entry:
  store @double, @g_handler
  %f = load @g_handler
  %r = call %f(21)
  ret %r
}
"""
    )
    assert r.exit_value == 42


def test_globals_initialized():
    r = run(
        """
module t
global g: i64 = 9
func main() -> i64 {
entry:
  %v = load @g
  ret %v
}
"""
    )
    assert r.exit_value == 9


def test_division_by_zero_crashes():
    r = run(
        """
module t
func main() -> i64 {
entry:
  %z = sub 1, 1
  %r = div 5, %z
  ret %r
}
"""
    )
    assert r.outcome == "crash"
    assert r.failure.detail.endswith("division by zero")


def test_step_limit():
    src = """
module t
func main() -> void {
entry:
  br entry
}
"""
    m = parse_module(src)
    result = Machine(m, max_steps=1000).run("main")
    assert result.outcome == "step-limit"


def test_unfinalized_module_rejected():
    from repro.ir import Module

    m = Module("t")
    with pytest.raises(SimulationError):
        Machine(m)


def test_duration_reflects_costs():
    r = run(
        """
module t
func main() -> void {
entry:
  delay 5000
  ret
}
"""
    )
    assert r.duration >= 5000


def test_heap_and_struct_fields():
    r = run(
        """
module t
struct P { x: i64, y: i64 }
func main() -> i64 {
entry:
  %p = malloc P
  %xf = fieldaddr %p, x
  %yf = fieldaddr %p, y
  store 30, %xf
  store 12, %yf
  %a = load %xf
  %b = load %yf
  %s = add %a, %b
  free %p
  ret %s
}
"""
    )
    assert r.exit_value == 42


def test_array_indexing():
    r = run(
        """
module t
func main() -> i64 {
entry:
  %buf = malloc i64, 4
  %e2 = indexaddr %buf, 2
  store 7, %e2
  %v = load %e2
  ret %v
}
"""
    )
    assert r.exit_value == 7


def test_cost_table_honours_overrides():
    src = """
module t
func main() -> void {
entry:
  %a = add 1, 2
  ret
}
"""
    base = run(src).duration
    priced = run(src, cost_model=CostModel(overrides={"binop": 1000})).duration
    assert priced - base == 1000 - CostModel().default


def test_instruction_without_a_handler_raises():
    class Bogus(Instruction):
        opcode = "bogus"

    m = parse_module(
        """
module t
func main() -> void {
entry:
  ret
}
""",
        finalize=False,
    )
    entry = m.function("main").entry
    bogus = Bogus(VOID, [])
    bogus.parent = entry
    entry.instructions.insert(0, bogus)
    m.finalize(verify=False)
    with pytest.raises(SimulationError, match="cannot execute bogus"):
        Machine(m).run("main")


def test_finished_machine_is_freed_without_the_cycle_collector():
    # a traced run's machine holds its memory, threads and per-thread
    # ring buffers: no reference cycle may keep it past its last user
    m = parse_module(
        """
module t
func main() -> void {
entry:
  %a = add 1, 2
  ret
}
"""
    )
    gc.collect()
    gc.disable()
    try:
        machine = Machine(m, trace_driver=PTDriver())
        machine.run("main")
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()


def test_equality_on_a_function_pointer():
    # only the requested comparison may run: ordering a function
    # reference against an int would raise inside the host
    r = run(
        """
module t
global g_handler: fn(i64) -> i64
func double(x: i64) -> i64 {
entry:
  %r = mul %x, 2
  ret %r
}
func main() -> i64 {
entry:
  store @double, @g_handler
  %f = load @g_handler
  %c = cmp eq %f, 0
  %d = cmp ne %f, 0
  %e = cmp eq %f, @double
  %ci = cast %c to i64
  %di = cast %d to i64
  %ei = cast %e to i64
  %d2 = mul %di, 2
  %e4 = mul %ei, 4
  %s = add %ci, %d2
  %t = add %s, %e4
  ret %t
}
"""
    )
    assert r.outcome == "success", r.failure
    assert r.exit_value == 0 + 2 + 4


@pytest.mark.parametrize(
    "a, b",
    [
        (1152921504606846977, 1),
        (1152921504606846977, 3),
        (-1152921504606846977, 7),
        (9007199254740993, -2),
        (-7, 2),
        (7, -2),
        (-7, -2),
    ],
)
def test_integer_division_is_exact_and_truncates_toward_zero(a, b):
    r = run(
        f"""
module t
func main() -> i64 {{
entry:
  %q = div {a}, {b}
  %r = mod {a}, {b}
  %q2 = mul %q, 1000
  %s = add %q2, %r
  ret %s
}}
"""
    )
    q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    assert r.exit_value == q * 1000 + (a - b * q)
