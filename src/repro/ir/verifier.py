"""Module verifier: structural invariants checked before finalization.

Functions are checked in module order, and the first violation raises a
:class:`repro.errors.VerifierError` naming the offending function or
block.  For each function:

1. it has a block, and every block is non-empty and ends in a
   terminator (all blocks are checked before anything else);
2. then one pass over its blocks and instructions, in order:

   * a terminator is the last instruction of its block;
   * each operand that is an instruction belongs to the same function,
     and its definition dominates the use: earlier in the same block, or
     in a block that dominates the using block.  There are no phis, so
     values that merge across paths must go through allocas.  Uses in
     unreachable blocks are not checked; a definition in an unreachable
     block dominates nothing;
   * an argument operand is this function's, and a global or function
     operand is this module's own;
   * branch targets belong to the same function;
   * opaque structs are never allocated;
   * ``ret`` returns a value of the declared type, and returns none only
     from a void function.

Each instruction's checks dispatch on its class, and an error's text is
built only when it is raised.  Dominance is read from the function's
:class:`repro.ir.cfg.DominatorTree`, an immediate-dominator tree built
the first time the pass meets an operand defined in another block than
its use and the entry block (the entry dominates every reachable block).
When a branch leaves the function, reachability follows it through the
other function and back, so the tree is built before the pass.
"""

from __future__ import annotations

from repro.errors import VerifierError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Br, CondBr, Instruction, Malloc, Ret
from repro.ir.module import Module
from repro.ir.types import StructType, VoidType
from repro.ir.values import Argument, FunctionRef, GlobalVariable


def verify_module(module: Module) -> None:
    for fn in module.functions.values():
        _verify_function(module, fn)


def _verify_function(module: Module, fn: Function) -> None:
    blocks = fn.blocks
    if not blocks:
        raise VerifierError(f"function {fn.name} has no blocks")
    own = set(blocks)
    leaves = False  # whether some block branches out of the function
    for block in blocks:
        instrs = block.instructions
        if not instrs:
            raise VerifierError(f"empty block in {block.label()}")
        term = instrs[-1]
        if not term.is_terminator:
            raise VerifierError(f"block does not end in a terminator in {block.label()}")
        if not leaves:
            leaves = any(t not in own for t in term.successors())
    entry = blocks[0]
    tree = DominatorTree(fn) if leaves else None
    checks = _CHECKS_LEAVING if leaves else _CHECKS
    for block in blocks:
        instrs = block.instructions
        last = len(instrs) - 1
        defined: set[Instruction] = set()
        for i, instr in enumerate(instrs):
            if instr.is_terminator and i != last:
                raise VerifierError(
                    f"terminator {instr.opcode} not at block end in {block.label()}"
                )
            for op in instr.operands:
                if isinstance(op, Instruction):
                    def_block = op.parent
                    if def_block is None or def_block.function is not fn:
                        raise VerifierError(
                            f"operand {op.short()} of {instr.opcode} in "
                            f"{block.label()} belongs to another function"
                        )
                    if def_block is block:
                        if op not in defined:
                            raise VerifierError(
                                f"use of {op.short()} before definition in "
                                f"{instr.opcode} in {block.label()}"
                            )
                    elif def_block is not entry or leaves:
                        if tree is None:
                            tree = DominatorTree(fn)
                        if not tree.dominates(def_block, block) and block in tree.reachable:
                            raise VerifierError(
                                f"operand {op.short()} of {instr.opcode} in "
                                f"{block.label()} does not dominate its use; "
                                f"route merging dataflow through an alloca"
                            )
                elif isinstance(op, Argument):
                    if op.function is not None and op.function is not fn:
                        raise VerifierError(
                            f"argument {op.short()} of another function used in "
                            f"{instr.opcode} in {block.label()}"
                        )
                elif isinstance(op, GlobalVariable):
                    if module.globals.get(op.name) is not op:
                        raise VerifierError(
                            f"foreign global {op.short()} used in "
                            f"{instr.opcode} in {block.label()}"
                        )
                elif isinstance(op, FunctionRef):
                    if module.functions.get(op.function.name) is not op.function:
                        raise VerifierError(
                            f"foreign function {op.short()} used in "
                            f"{instr.opcode} in {block.label()}"
                        )
            check = checks.get(instr.__class__)
            if check is not None:
                check(instr, block, own)
            defined.add(instr)


def _check_targets(instr: Br | CondBr, block: BasicBlock, own: set[BasicBlock]) -> None:
    for t in instr.successors():
        if t not in own:
            raise VerifierError(
                f"branch to block {t.name!r} of another function in {block.label()}"
            )


def _check_allocation(instr: Alloca | Malloc, block: BasicBlock, own: set[BasicBlock]) -> None:
    ty = instr.allocated_type
    if isinstance(ty, StructType) and ty.is_opaque:
        raise VerifierError(f"allocation of opaque struct {ty.name} in {block.label()}")


def _check_ret(instr: Ret, block: BasicBlock, own: set[BasicBlock]) -> None:
    fn = instr.parent.function if instr.parent else None
    if fn is None:
        return
    want = fn.return_type
    if instr.value is None:
        if not isinstance(want, VoidType):
            raise VerifierError(f"ret without value in non-void {fn.name}")
    elif instr.value.ty != want:
        raise VerifierError(
            f"ret type mismatch in {fn.name}: {instr.value.ty} vs declared {want}"
        )


# Branch targets can only be foreign in a function with a branch that
# leaves it; the pre-pass finds those.
_CHECKS = {Alloca: _check_allocation, Malloc: _check_allocation, Ret: _check_ret}
_CHECKS_LEAVING = {**_CHECKS, Br: _check_targets, CondBr: _check_targets}
