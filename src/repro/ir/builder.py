"""Fluent IR construction API.

``IRBuilder`` keeps a current insertion point (function + block) and
offers one method per instruction, plus structured control-flow helpers
(``if_then``, ``if_else``, ``while_``, ``for_range``) so corpus programs
read like the C they model instead of raw CFG plumbing.

Example::

    m = Module("demo")
    b = IRBuilder(m)
    b.begin_function("main", VOID, [])
    i = b.alloca_slot(I64, "i")
    with b.for_range(i, 0, 10):
        b.delay(b.i64(100))
    b.ret()
    m.finalize()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    Assert,
    BarrierInit,
    BarrierWait,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
    CondInit,
    CondNotify,
    CondWait,
    Delay,
    FieldAddr,
    Free,
    IndexAddr,
    Instruction,
    Join,
    Load,
    Lock,
    LockInit,
    Malloc,
    Ret,
    RwInit,
    RwRdLock,
    RwUnlock,
    RwWrLock,
    SemInit,
    SemPost,
    SemWait,
    SourceLoc,
    Spawn,
    Store,
    Unlock,
)
from repro.ir.module import Module
from repro.ir.types import F64, I1, I64, FloatType, IntType, PointerType, Type
from repro.ir.values import Constant, FunctionRef, NullPointer, Value


class IRBuilder:
    def __init__(self, module: Module):
        self.module = module
        self.function: Function | None = None
        self.block: BasicBlock | None = None
        self._loc: SourceLoc | None = None
        self._fresh = 0

    # -- positioning -----------------------------------------------------

    def begin_function(
        self, name: str, ret: Type, params: Sequence[tuple[str, Type]]
    ) -> Function:
        fn = self.module.add_function(name, ret, params)
        self.function = fn
        self.block = fn.add_block("entry")
        return fn

    def add_block(self, name: str | None = None) -> BasicBlock:
        fn = self._require_function()
        if name is None:
            name = self._fresh_name("bb")
        return fn.add_block(name)

    def position(self, block: BasicBlock) -> None:
        self.block = block
        self.function = block.function

    def set_location(self, file: str, line: int) -> None:
        """Attach (file, line) to subsequently emitted instructions."""
        self._loc = SourceLoc(file, line)

    def clear_location(self) -> None:
        self._loc = None

    @contextmanager
    def at_location(self, file: str, line: int) -> Iterator[None]:
        prev = self._loc
        self._loc = SourceLoc(file, line)
        try:
            yield
        finally:
            self._loc = prev

    def param(self, name: str) -> Value:
        return self._require_function().param(name)

    # -- constants --------------------------------------------------------

    def const(self, ty: Type, value: int | float) -> Constant:
        return Constant(ty, value)

    def i64(self, value: int) -> Constant:
        return Constant(I64, value)

    def i1(self, value: bool) -> Constant:
        return Constant(I1, 1 if value else 0)

    def f64(self, value: float) -> Constant:
        return Constant(F64, float(value))

    def null(self, pointee: Type) -> NullPointer:
        return NullPointer(PointerType(pointee))

    def funcref(self, name: str) -> FunctionRef:
        return FunctionRef(self.module.function(name))

    # -- instruction emitters ----------------------------------------------

    def alloca(self, ty: Type, name: str = "") -> Alloca:
        return self._emit(Alloca(ty, name or self._fresh_name("slot")))

    # alias that reads better at call sites building locals
    alloca_slot = alloca

    def malloc(self, ty: Type, count: Value | None = None, name: str = "") -> Malloc:
        return self._emit(Malloc(ty, count, name or self._fresh_name("obj")))

    def free(self, pointer: Value) -> Free:
        return self._emit(Free(pointer))

    def load(self, pointer: Value, name: str = "") -> Load:
        return self._emit(Load(pointer, name or self._fresh_name("v")))

    def store(self, value: Value | int, pointer: Value) -> Store:
        value = self._coerce(value, pointer)
        return self._emit(Store(value, pointer))

    def fieldaddr(self, pointer: Value, field: str, name: str = "") -> FieldAddr:
        return self._emit(FieldAddr(pointer, field, name or self._fresh_name("fld")))

    def indexaddr(self, pointer: Value, index: Value | int, name: str = "") -> IndexAddr:
        if isinstance(index, int):
            index = self.i64(index)
        return self._emit(IndexAddr(pointer, index, name or self._fresh_name("elt")))

    def load_field(self, pointer: Value, field: str, name: str = "") -> Load:
        """fieldaddr followed by load: ``p->field``."""
        return self.load(self.fieldaddr(pointer, field), name)

    def store_field(self, value: Value | int, pointer: Value, field: str) -> Store:
        """fieldaddr followed by store: ``p->field = value``."""
        addr = self.fieldaddr(pointer, field)
        return self.store(value, addr)

    def binop(self, op: str, lhs: Value, rhs: Value | int, name: str = "") -> BinOp:
        if isinstance(rhs, int):
            rhs = Constant(lhs.ty, rhs)
        return self._emit(BinOp(op, lhs, rhs, name or self._fresh_name("t")))

    def add(self, lhs: Value, rhs: Value | int, name: str = "") -> BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value | int, name: str = "") -> BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value | int, name: str = "") -> BinOp:
        return self.binop("mul", lhs, rhs, name)

    def mod(self, lhs: Value, rhs: Value | int, name: str = "") -> BinOp:
        return self.binop("mod", lhs, rhs, name)

    def cmp(self, op: str, lhs: Value, rhs: Value | int, name: str = "") -> Cmp:
        if isinstance(rhs, int):
            rhs = Constant(lhs.ty, rhs)
        return self._emit(Cmp(op, lhs, rhs, name or self._fresh_name("c")))

    def cast(self, value: Value, to_type: Type, name: str = "") -> Cast:
        return self._emit(Cast(value, to_type, name or self._fresh_name("cast")))

    def is_null(self, pointer: Value, name: str = "") -> Cmp:
        as_int = self.cast(pointer, I64)
        return self.cmp("eq", as_int, 0, name)

    def br(self, target: BasicBlock) -> Br:
        return self._emit(Br(target))

    def cbr(self, cond: Value, then_block: BasicBlock, else_block: BasicBlock) -> CondBr:
        return self._emit(CondBr(cond, then_block, else_block))

    def ret(self, value: Value | None = None) -> Ret:
        return self._emit(Ret(value))

    def call(self, callee: str | Value, args: Sequence[Value] = (), name: str = "") -> Call:
        if isinstance(callee, str):
            callee = self.funcref(callee)
        return self._emit(Call(callee, list(args), name or self._fresh_name("r")))

    def lock_init(self, pointer: Value) -> LockInit:
        return self._emit(LockInit(pointer))

    def lock(self, pointer: Value) -> Lock:
        return self._emit(Lock(pointer))

    def unlock(self, pointer: Value) -> Unlock:
        return self._emit(Unlock(pointer))

    def cond_init(self, pointer: Value) -> CondInit:
        return self._emit(CondInit(pointer))

    def cond_wait(self, pointer: Value) -> CondWait:
        return self._emit(CondWait(pointer))

    def cond_notify(self, pointer: Value) -> CondNotify:
        return self._emit(CondNotify(pointer))

    def rw_init(self, pointer: Value) -> RwInit:
        return self._emit(RwInit(pointer))

    def rw_rdlock(self, pointer: Value) -> RwRdLock:
        return self._emit(RwRdLock(pointer))

    def rw_wrlock(self, pointer: Value) -> RwWrLock:
        return self._emit(RwWrLock(pointer))

    def rw_unlock(self, pointer: Value) -> RwUnlock:
        return self._emit(RwUnlock(pointer))

    def sem_init(self, pointer: Value, count: Value | int) -> SemInit:
        if isinstance(count, int):
            count = self.i64(count)
        return self._emit(SemInit(pointer, count))

    def sem_wait(self, pointer: Value) -> SemWait:
        return self._emit(SemWait(pointer))

    def sem_post(self, pointer: Value) -> SemPost:
        return self._emit(SemPost(pointer))

    def barrier_init(self, pointer: Value, parties: Value | int) -> BarrierInit:
        if isinstance(parties, int):
            parties = self.i64(parties)
        return self._emit(BarrierInit(pointer, parties))

    def barrier_wait(self, pointer: Value) -> BarrierWait:
        return self._emit(BarrierWait(pointer))

    def spawn(self, callee: str | Value, args: Sequence[Value] = (), name: str = "") -> Spawn:
        if isinstance(callee, str):
            callee = self.funcref(callee)
        return self._emit(Spawn(callee, list(args), name or self._fresh_name("tid")))

    def join(self, handle: Value) -> Join:
        return self._emit(Join(handle))

    def delay(self, duration: Value | int) -> Delay:
        if isinstance(duration, int):
            duration = self.i64(duration)
        return self._emit(Delay(duration))

    def assert_(self, cond: Value, message: str = "assertion failed") -> Assert:
        return self._emit(Assert(cond, message))

    # -- structured control flow -------------------------------------------

    @contextmanager
    def if_then(self, cond: Value) -> Iterator[None]:
        """``if (cond) { body }``; positions at the continuation after."""
        then_block = self.add_block(self._fresh_name("then"))
        cont_block = self.add_block(self._fresh_name("endif"))
        self.cbr(cond, then_block, cont_block)
        self.position(then_block)
        yield
        if not self._current().is_terminated:
            self.br(cont_block)
        self.position(cont_block)

    @contextmanager
    def if_else(self, cond: Value) -> Iterator["ElseArm"]:
        """``if (cond) { then-body } else { else-body }``.

        Usage::

            with b.if_else(cond) as otherwise:
                ...then body...
                with otherwise:
                    ...else body...
        """
        then_block = self.add_block(self._fresh_name("then"))
        else_block = self.add_block(self._fresh_name("else"))
        cont_block = self.add_block(self._fresh_name("endif"))
        self.cbr(cond, then_block, else_block)
        self.position(then_block)
        arm = ElseArm(self, else_block, cont_block)
        yield arm
        if not arm.entered:
            raise IRError("if_else used without entering the else arm")
        self.position(cont_block)

    @contextmanager
    def while_(self, cond_builder) -> Iterator[None]:
        """``while (cond) { body }``; ``cond_builder()`` runs in the header."""
        header = self.add_block(self._fresh_name("while"))
        body = self.add_block(self._fresh_name("body"))
        exit_block = self.add_block(self._fresh_name("endwhile"))
        self.br(header)
        self.position(header)
        cond = cond_builder()
        self.cbr(cond, body, exit_block)
        self.position(body)
        yield
        if not self._current().is_terminated:
            self.br(header)
        self.position(exit_block)

    @contextmanager
    def for_range(
        self, slot: Value, start: Value | int, stop: Value | int
    ) -> Iterator[Value]:
        """``for (slot = start; slot < stop; slot++) { body }``.

        ``slot`` must be a ``ptr<iN>`` (usually an alloca); yields the
        loaded induction value for use in the body.
        """
        elem = slot.ty.pointee  # type: ignore[attr-defined]
        if isinstance(start, int):
            start = Constant(elem, start)
        if isinstance(stop, int):
            stop = Constant(elem, stop)
        stop_slot = self.alloca(elem, self._fresh_name("stop"))
        self.store(stop, stop_slot)
        self.store(start, slot)
        header = self.add_block(self._fresh_name("for"))
        body = self.add_block(self._fresh_name("body"))
        exit_block = self.add_block(self._fresh_name("endfor"))
        self.br(header)
        self.position(header)
        idx = self.load(slot)
        bound = self.load(stop_slot)
        self.cbr(self.cmp("lt", idx, bound), body, exit_block)
        self.position(body)
        yield self.load(slot)
        if not self._current().is_terminated:
            cur = self.load(slot)
            self.store(self.add(cur, 1), slot)
            self.br(header)
        self.position(exit_block)

    # -- internals -----------------------------------------------------------

    def _emit(self, instr: Instruction) -> Instruction:
        block = self.block
        if block is None:
            raise IRError("builder has no insertion point; call begin_function")
        block.append(instr)
        if self._loc is not None:
            instr.loc = self._loc
        return instr

    def _current(self) -> BasicBlock:
        if self.block is None:
            raise IRError("builder has no insertion point; call begin_function")
        return self.block

    def _require_function(self) -> Function:
        if self.function is None:
            raise IRError("builder has no current function")
        return self.function

    def _coerce(self, value: Value | int | float, pointer: Value) -> Value:
        if isinstance(value, Value):
            return value
        pointee = pointer.ty.pointee  # type: ignore[attr-defined]
        if isinstance(pointee, IntType) and isinstance(value, int):
            return Constant(pointee, value)
        if isinstance(pointee, FloatType):
            return Constant(pointee, float(value))
        raise IRError(f"cannot coerce literal {value!r} for store to {pointer.ty}")

    def _fresh_name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"


class ElseArm:
    """Context manager for the else branch inside ``IRBuilder.if_else``."""

    def __init__(self, builder: IRBuilder, else_block: BasicBlock, cont_block: BasicBlock):
        self._builder = builder
        self._else_block = else_block
        self._cont_block = cont_block
        self.entered = False

    def __enter__(self) -> None:
        b = self._builder
        if not b._current().is_terminated:
            b.br(self._cont_block)
        b.position(self._else_block)
        self.entered = True

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        b = self._builder
        if not b._current().is_terminated:
            b.br(self._cont_block)
