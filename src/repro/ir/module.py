"""Modules: the unit of compilation, execution, and analysis.

A module owns struct types, global variables, and functions.  Before a
module can be executed or analyzed it must be ``finalize()``d, which

* verifies structural invariants (via :mod:`repro.ir.verifier`),
* assigns module-unique ``uid`` integers to every instruction, basic
  block, and global (uids are the "program counters" used by traces,
  breakpoints and diagnosis reports), and
* builds the uid lookup tables used throughout the stack.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.types import StructType, Type
from repro.ir.values import GlobalVariable, Value


class Module:
    def __init__(self, name: str):
        self.name = name
        self.structs: dict[str, StructType] = {}
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}
        self.finalized = False
        # uid -> instruction / block; uids are dense, so these are lists
        # indexed by uid holding None at the uids of the other kinds
        self._instr_by_uid: list[Instruction | None] = []
        self._block_by_uid: list[BasicBlock | None] = []
        # the simulator's pre-decoded program, filled as machines first
        # need each entry (see repro.sim.machine): block -> its
        # instructions' code, function -> its frame layout, and
        # "globals" -> the globals' address space
        self.code: dict[BasicBlock | Function | str, tuple] = {}
        # start uid -> its straight-line run up to the next control
        # instruction, filled by the PT decoder the first time a walk
        # reaches that uid (see repro.pt.decoder); an entry depends only
        # on the IR, so decoders on several threads that fill the same
        # entry store equal values
        self.walk: dict[int, tuple] = {}

    # -- construction ----------------------------------------------------

    def add_struct(self, name: str, fields: Sequence[tuple[str, Type]] | None = None) -> StructType:
        if name in self.structs:
            raise IRError(f"duplicate struct {name!r} in module {self.name}")
        st = StructType(name, fields)
        self.structs[name] = st
        return st

    def struct(self, name: str) -> StructType:
        try:
            return self.structs[name]
        except KeyError:
            raise IRError(f"module {self.name} has no struct {name!r}") from None

    def add_global(self, name: str, value_type: Type, initializer: Value | None = None) -> GlobalVariable:
        if name in self.globals:
            raise IRError(f"duplicate global {name!r} in module {self.name}")
        g = GlobalVariable(name, value_type, initializer)
        self.globals[name] = g
        return g

    def global_var(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"module {self.name} has no global {name!r}") from None

    def add_function(self, name: str, ret: Type, params: Sequence[tuple[str, Type]]) -> Function:
        if name in self.functions:
            raise IRError(f"duplicate function {name!r} in module {self.name}")
        fn = Function(name, ret, params)
        self.functions[name] = fn
        return fn

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module {self.name} has no function {name!r}") from None

    # -- finalization ------------------------------------------------------

    def finalize(self, verify: bool = True) -> "Module":
        """Verify and assign uids.  Idempotent."""
        if self.finalized:
            return self
        if verify:
            from repro.ir.verifier import verify_module

            verify_module(self)
        self.code = {}
        self.walk = {}
        next_uid = 1  # uid 0 is reserved as "no instruction"
        for g in self.globals.values():
            g.uid = next_uid
            next_uid += 1
        instrs: list[Instruction | None] = [None] * next_uid
        blocks: list[BasicBlock | None] = [None] * next_uid
        for fn in self.functions.values():
            fn._allocas = None
            for block in fn.blocks:
                block.uid = next_uid
                body = block.instructions
                blocks.append(block)
                blocks.extend([None] * len(body))
                instrs.append(None)
                instrs.extend(body)
                for index, instr in enumerate(body):
                    instr.uid = next_uid = next_uid + 1
                    instr.block_index = index
                next_uid += 1
        self._instr_by_uid = instrs
        self._block_by_uid = blocks
        self.finalized = True
        return self

    def refinalize(self, verify: bool = True) -> "Module":
        """Re-verify and re-assign uids after a structural edit.

        For :mod:`repro.validate`'s IR-level candidate fixes: a patched
        module gets a fresh, gap-free uid numbering (old uids are
        remapped by the fixer).  Only ever call this on a module that no
        uid-keyed consumer (caches, traces, breakpoints) has seen —
        fixes operate on fresh builder output for exactly that reason.
        Pre-decoded code, the decoder's walk table and each function's
        alloca list are dropped.
        """
        self.finalized = False
        return self.finalize(verify)

    def _require_finalized(self) -> None:
        if not self.finalized:
            raise IRError(f"module {self.name} is not finalized")

    def instruction(self, uid: int) -> Instruction:
        self._require_finalized()
        table = self._instr_by_uid
        instr = table[uid] if 0 < uid < len(table) else None
        if instr is None:
            raise IRError(f"module {self.name} has no instruction uid={uid}")
        return instr

    def instruction_or_none(self, uid: int) -> Instruction | None:
        """Like :meth:`instruction` but None for unknown uids (e.g. a
        traced uid that names a block or global, not an instruction)."""
        self._require_finalized()
        table = self._instr_by_uid
        return table[uid] if 0 < uid < len(table) else None

    def block(self, uid: int) -> BasicBlock:
        self._require_finalized()
        table = self._block_by_uid
        block = table[uid] if 0 < uid < len(table) else None
        if block is None:
            raise IRError(f"module {self.name} has no block uid={uid}")
        return block

    def instructions(self) -> Iterator[Instruction]:
        for fn in self.functions.values():
            yield from fn.instructions()

    def instruction_count(self) -> int:
        return sum(1 for _ in self.instructions())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name} structs={len(self.structs)} "
            f"globals={len(self.globals)} functions={len(self.functions)}>"
        )
