"""Functions: named parameter lists plus a CFG of basic blocks."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Alloca, Instruction
from repro.ir.types import FunctionType, Type
from repro.ir.values import Argument


class Function:
    """A function definition.

    The first block added is the entry block.  ``allocas()`` enumerates
    every stack slot in the body; the simulator materializes all of them
    when a frame is pushed (clang-style), so an alloca inside a loop still
    denotes a single slot per activation.  The list is computed once and
    recomputed after the module is (re)finalized.
    """

    __slots__ = ("name", "type", "params", "blocks", "_block_names", "_allocas")

    def __init__(self, name: str, ret: Type, params: Sequence[tuple[str, Type]]):
        self.name = name
        self.type = FunctionType(ret, [ty for _, ty in params])
        self.params: list[Argument] = [
            Argument(pname, pty, self, i) for i, (pname, pty) in enumerate(params)
        ]
        self.blocks: list[BasicBlock] = []
        self._block_names: set[str] = set()
        self._allocas: tuple[Alloca, ...] | None = None

    @property
    def return_type(self) -> Type:
        return self.type.ret

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str) -> BasicBlock:
        if name in self._block_names:
            raise IRError(f"duplicate block name {name!r} in function {self.name}")
        self._block_names.add(name)
        block = BasicBlock(name, self)
        self.blocks.append(block)
        return block

    def block(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise IRError(f"function {self.name} has no block {name!r}")

    def param(self, name: str) -> Argument:
        for p in self.params:
            if p.name == name:
                return p
        raise IRError(f"function {self.name} has no parameter {name!r}")

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def allocas(self) -> tuple[Alloca, ...]:
        if self._allocas is None:
            self._allocas = tuple(
                i for i in self.instructions() if isinstance(i, Alloca)
            )
        return self._allocas

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} blocks={len(self.blocks)}>"
