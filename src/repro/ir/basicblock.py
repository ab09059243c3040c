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
        if self.is_terminated:
            raise IRError(
                f"block {self.label()} already ends in "
                f"{self.terminator.opcode}; cannot append {instr.opcode}"
            )
        instr.parent = self
        self.instructions.append(instr)
        return instr

    @property
    def terminator(self) -> Instruction:
        if not self.instructions or not self.instructions[-1].is_terminator:
            raise IRError(f"block {self.label()} has no terminator")
        return self.instructions[-1]

    @property
    def is_terminated(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].is_terminator

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
