"""IR values: constants, globals, function arguments.

Anything an instruction can read is a :class:`Value`.  Instructions that
produce results are themselves values (defined in ``instructions.py``),
mirroring LLVM's def-use model.  Cross-basic-block dataflow in this IR
goes through memory (``alloca`` slots), matching the un-optimized code
clang emits, so there are no phi nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import IRTypeError
from repro.ir.types import IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.ir.function import Function


class Value:
    """Base class of everything that can appear as an operand."""

    __slots__ = ("ty", "name")

    def __init__(self, ty: Type, name: str = ""):
        self.ty = ty
        self.name = name

    def short(self) -> str:
        """Render this value the way an operand position prints it."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.short()}: {self.ty}>"


class Constant(Value):
    """An integer or float literal."""

    __slots__ = ("value",)

    def __init__(self, ty: Type, value: int | float):
        self.ty = ty  # Value's two fields, set here to save a call per constant
        self.name = ""
        if isinstance(ty, IntType) and not isinstance(value, int):
            raise IRTypeError(f"integer constant with non-int value {value!r}")
        self.value = value

    def short(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.ty == self.ty
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("const", self.ty, self.value))


class NullPointer(Value):
    """The null pointer constant for a given pointer type."""

    __slots__ = ()

    def __init__(self, ty: PointerType):
        if not isinstance(ty, PointerType):
            raise IRTypeError(f"null must have a pointer type, got {ty}")
        super().__init__(ty)

    def short(self) -> str:
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullPointer) and other.ty == self.ty

    def __hash__(self) -> int:
        return hash(("null", self.ty))


class GlobalVariable(Value):
    """A module-level variable.

    Like in LLVM, the *value* of a global is the **address** of its
    storage, so ``self.ty`` is a pointer to ``value_type``.  Globals are
    zero/null-initialized unless ``initializer`` is given.
    """

    __slots__ = ("value_type", "initializer", "uid")

    def __init__(self, name: str, value_type: Type, initializer: Value | None = None):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.uid: int = -1  # assigned by Module.finalize()

    def short(self) -> str:
        return f"@{self.name}"


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("function", "index")

    def __init__(self, name: str, ty: Type, function: "Function | None" = None, index: int = -1):
        super().__init__(ty, name)
        self.function = function
        self.index = index


class FunctionRef(Value):
    """A function used as a first-class value (for indirect calls/spawn).

    The ``Function`` object itself is not a Value to keep the class
    hierarchy simple; taking a function's address yields a FunctionRef.
    """

    __slots__ = ("function",)

    def __init__(self, function: "Function"):
        super().__init__(function.type, function.name)
        self.function = function

    def short(self) -> str:
        return f"@{self.function.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionRef) and other.function is self.function

    def __hash__(self) -> int:
        return hash(("fnref", id(self.function)))
