"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import IRError
from repro.ir.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class BasicBlock:
    """A contiguous instruction sequence with no internal branches.

    Blocks get a module-unique ``uid`` at finalization; the PT-like trace
    encoder uses block uids as the "addresses" carried by TIP packets.
    """

    __slots__ = ("name", "function", "instructions", "uid")

    def __init__(self, name: str, function: "Function | None" = None):
        self.name = name
        self.function = function
        self.instructions: list[Instruction] = []
        self.uid: int = -1  # assigned by Module.finalize()

    def append(self, instr: Instruction) -> Instruction:
        instrs = self.instructions
        if instrs and instrs[-1].is_terminator:
            raise IRError(
                f"block {self.label()} already ends in "
                f"{instrs[-1].opcode}; cannot append {instr.opcode}"
            )
        instr.parent = self
        instrs.append(instr)
        return instr

    @property
    def terminator(self) -> Instruction:
        instrs = self.instructions
        if not instrs or not instrs[-1].is_terminator:
            raise IRError(f"block {self.label()} has no terminator")
        return instrs[-1]

    @property
    def is_terminated(self) -> bool:
        instrs = self.instructions
        return bool(instrs) and instrs[-1].is_terminator

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors()  # type: ignore[attr-defined]

    def label(self) -> str:
        fn = self.function.name if self.function else "?"
        return f"{fn}.{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.label()} uid={self.uid} n={len(self.instructions)}>"
