"""Textual IR printer.

Renders a module in the assembly-like syntax accepted by
:mod:`repro.ir.parser`, so ``parse(print_module(m))`` round-trips.
Instruction results print as ``%name``; globals and functions as
``@name``; integer literals carry their type only where the parser needs
it (``cast``) and print bare elsewhere.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    Assert,
    BarrierInit,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
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
    SemInit,
    Spawn,
    Store,
    Unlock,
    _SyncOp,
)
from repro.ir.module import Module
from repro.ir.values import (
    Argument,
    Constant,
    FunctionRef,
    GlobalVariable,
    NullPointer,
    Value,
)


def print_module(module: Module) -> str:
    lines: list[str] = [f"module {module.name}", ""]
    for st in module.structs.values():
        fields = ", ".join(f"{f.name}: {f.ty}" for f in st.fields)
        lines.append(f"struct {st.name} {{ {fields} }}")
    if module.structs:
        lines.append("")
    for g in module.globals.values():
        init = ""
        if g.initializer is not None:
            init = f" = {operand(g.initializer)}"
        lines.append(f"global {g.name}: {g.value_type}{init}")
    if module.globals:
        lines.append("")
    for fn in module.functions.values():
        lines.append(print_function(fn))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def print_function(fn: Function) -> str:
    params = ", ".join(f"{p.name}: {p.ty}" for p in fn.params)
    lines = [f"func {fn.name}({params}) -> {fn.return_type} {{"]
    for block in fn.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instructions:
            lines.append(f"  {print_instruction(instr)}")
    lines.append("}")
    return "\n".join(lines)


def operand(value: Value) -> str:
    fmt = _OPERAND_BY_TYPE.get(type(value))
    if fmt is None:
        fmt = _dispatch(_OPERANDS, _OPERAND_BY_TYPE, type(value))
        if fmt is None:
            raise TypeError(f"cannot print operand {value!r}")
    return fmt(value)


def print_instruction(instr: Instruction) -> str:
    text = _instruction_body(instr)
    if instr.loc is not None:
        text += f"  @ {instr.loc.file}:{instr.loc.line}"
    return text


def _instruction_body(instr: Instruction) -> str:
    fmt = _BODY_BY_TYPE.get(type(instr))
    if fmt is None:
        fmt = _dispatch(_BODIES, _BODY_BY_TYPE, type(instr))
        if fmt is None:
            raise TypeError(f"cannot print instruction {instr!r}")
    return fmt(instr)


def _dispatch(chain, by_type: dict, cls: type):
    """The printer the isinstance ``chain`` picks for ``cls``: the first
    entry whose class ``cls`` is or derives from.  Remembered under
    ``cls``, so every later value of that type costs one dict lookup."""
    for base, fmt in chain:
        if issubclass(cls, base):
            by_type[cls] = fmt
            return fmt
    return None


def _cast(instr: Cast) -> str:
    src = instr.value
    if isinstance(src, Constant):
        return f"%{instr.name} = cast {src.ty} {src.value} to {instr.ty}"
    return f"%{instr.name} = cast {operand(src)} to {instr.ty}"


def _call(instr: Call) -> str:
    args = ", ".join(operand(a) for a in instr.args)
    callee = operand(instr.callee)
    if instr.name and str(instr.ty) != "void":
        return f"%{instr.name} = call {callee}({args})"
    return f"call {callee}({args})"


def _spawn(instr: Spawn) -> str:
    args = ", ".join(operand(a) for a in instr.args)
    return f"%{instr.name} = spawn {operand(instr.callee)}({args})"


def _malloc(instr: Malloc) -> str:
    count = f", {operand(instr.count)}" if instr.count is not None else ""
    return f"%{instr.name} = malloc {instr.allocated_type}{count}"


# Each printer keyed by the class it prints, in isinstance-chain order:
# a class derived from one listed here prints as its first listed base
# (every _SyncOp without an entry of its own prints by opcode).  No
# entry follows one of its own bases, so an exact type picks itself.
_BODIES: tuple = (
    (Alloca, lambda i: f"%{i.name} = alloca {i.allocated_type}"),
    (Malloc, _malloc),
    (Free, lambda i: f"free {operand(i.pointer)}"),
    (Load, lambda i: f"%{i.name} = load {operand(i.pointer)}"),
    (Store, lambda i: f"store {operand(i.value)}, {operand(i.pointer)}"),
    (
        FieldAddr,
        lambda i: f"%{i.name} = fieldaddr {operand(i.pointer)}, {i.field_name}",
    ),
    (
        IndexAddr,
        lambda i: f"%{i.name} = indexaddr {operand(i.pointer)}, {operand(i.index)}",
    ),
    (
        BinOp,
        lambda i: f"%{i.name} = {i.op} {operand(i.lhs)}, {operand(i.rhs)}",
    ),
    (
        Cmp,
        lambda i: f"%{i.name} = cmp {i.op} {operand(i.lhs)}, {operand(i.rhs)}",
    ),
    (Cast, _cast),
    (Br, lambda i: f"br {i.target.name}"),
    (
        CondBr,
        lambda i: (
            f"cbr {operand(i.cond)}, {i.then_block.name}, {i.else_block.name}"
        ),
    ),
    (
        Ret,
        lambda i: f"ret {operand(i.value)}" if i.value is not None else "ret",
    ),
    (Call, _call),
    (LockInit, lambda i: f"lockinit {operand(i.pointer)}"),
    (Lock, lambda i: f"lock {operand(i.pointer)}"),
    (Unlock, lambda i: f"unlock {operand(i.pointer)}"),
    (SemInit, lambda i: f"seminit {operand(i.pointer)}, {operand(i.count)}"),
    (
        BarrierInit,
        lambda i: f"barrierinit {operand(i.pointer)}, {operand(i.parties)}",
    ),
    (_SyncOp, lambda i: f"{i.opcode} {operand(i.pointer)}"),
    (Spawn, _spawn),
    (Join, lambda i: f"join {operand(i.handle)}"),
    (Delay, lambda i: f"delay {operand(i.duration)}"),
    (Assert, lambda i: f'assert {operand(i.cond)}, "{i.message}"'),
)
_BODY_BY_TYPE: dict = dict(_BODIES)

_OPERANDS: tuple = (
    (Constant, lambda v: str(v.value)),
    (NullPointer, lambda v: "null"),
    (GlobalVariable, lambda v: f"@{v.name}"),
    (FunctionRef, lambda v: f"@{v.function.name}"),
    (Argument, lambda v: f"%{v.name}"),
    (Instruction, lambda v: f"%{v.name}"),
)
_OPERAND_BY_TYPE: dict = dict(_OPERANDS)
