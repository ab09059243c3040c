"""IR type system.

The IR mirrors the slice of LLVM's type system that Lazy Diagnosis
consumes: integers, pointers, structs, arrays, functions, plus two opaque
runtime types (locks and thread handles) that the simulator gives special
semantics to.

Types are value objects: two structurally equal types compare equal and
hash equal, so they can key dictionaries (e.g. the type-based ranking
stage groups instructions by their operand's pointee type).  Named struct
types compare by name, which lets corpus programs define recursive
structures (a ``struct Node { next: ptr<Node> }``).

Layout: every scalar (int of any declared width, pointer, function
reference, thread handle, lock word) occupies one 8-byte word.  Struct
fields are laid out sequentially with no padding beyond that rule.  The
declared integer width still matters to type-based ranking (an ``i32*``
operand is a different type from an ``i64*``), matching the paper's
Figure 4 example where a ``Queue*`` outranks an ``i32*``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import IRTypeError

WORD_SIZE = 8
"""Size in bytes of every scalar slot in the simulated address space."""


class Type:
    """Base class for all IR types."""

    __slots__ = ()

    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise NotImplementedError

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_aggregate(self) -> bool:
        return isinstance(self, (StructType, ArrayType))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    """The type of instructions that produce no value."""

    __slots__ = ()

    def size(self) -> int:
        raise IRTypeError("void has no size")

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class IntType(Type):
    """An integer with a declared bit width (i1, i8, i32, i64, ...)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits <= 0 or bits > 64:
            raise IRTypeError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))


class FloatType(Type):
    """A 64-bit floating point value."""

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "f64"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType)

    def __hash__(self) -> int:
        return hash("f64")


class LockType(Type):
    """An opaque mutex word.

    Deadlock diagnosis keys on pointers to values of this type: the
    failing operand of a deadlock is a ``ptr<lock>`` (paper §4.3).
    """

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "lock"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LockType)

    def __hash__(self) -> int:
        return hash("lock")


class CondType(Type):
    """An opaque condition-variable word.

    Waits are "naked" (no associated mutex hand-off): a ``condwait``
    blocks until a later ``condnotify`` on the same address.  A notify
    with no waiter is *lost* — exactly the semantics that make lost
    wakeups expressible as corpus bugs.
    """

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "cond"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CondType)

    def __hash__(self) -> int:
        return hash("cond")


class RwLockType(Type):
    """An opaque reader-writer lock word.

    Many readers or one writer; writers block behind any reader and
    vice versa.  Diagnosis treats rd/wr acquisition like ``lock`` and
    release like ``unlock``.
    """

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "rwlock"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RwLockType)

    def __hash__(self) -> int:
        return hash("rwlock")


class SemType(Type):
    """An opaque counting-semaphore word (``semwait`` = P, ``sempost`` = V)."""

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "sema"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SemType)

    def __hash__(self) -> int:
        return hash("sema")


class BarrierType(Type):
    """An opaque cyclic-barrier word for ``parties`` threads per phase."""

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "barrier"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BarrierType)

    def __hash__(self) -> int:
        return hash("barrier")


class ThreadType(Type):
    """An opaque thread handle produced by ``spawn`` and used by ``join``."""

    __slots__ = ()

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "thread"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ThreadType)

    def __hash__(self) -> int:
        return hash("thread")


class PointerType(Type):
    """A pointer to a value of ``pointee`` type."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        if isinstance(pointee, VoidType):
            raise IRTypeError("use ptr<i8> instead of ptr<void>")
        self.pointee = pointee

    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return f"ptr<{self.pointee}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class StructField:
    """A named, typed field with a computed byte offset."""

    __slots__ = ("name", "ty", "offset")

    def __init__(self, name: str, ty: Type, offset: int):
        self.name = name
        self.ty = ty
        self.offset = offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<field {self.name}: {self.ty} @+{self.offset}>"


class StructType(Type):
    """A named aggregate with sequentially laid out fields.

    Struct types are nominal: equality and hashing use only the name, so
    a struct may contain pointers to itself.  The field list may be set
    after construction (``set_body``) to support such recursion.
    """

    __slots__ = ("name", "fields", "_size", "_sealed")

    def __init__(self, name: str, fields: Sequence[tuple[str, Type]] | None = None):
        if not name:
            raise IRTypeError("struct types must be named")
        self.name = name
        self.fields: list[StructField] = []
        self._size = 0
        self._sealed = False
        if fields is not None:
            self.set_body(fields)

    def set_body(self, fields: Iterable[tuple[str, Type]]) -> "StructType":
        if self._sealed:
            raise IRTypeError(f"struct {self.name} already has a body")
        offset = 0
        names: set[str] = set()
        for fname, fty in fields:
            if fname in names:
                raise IRTypeError(f"duplicate field {fname} in struct {self.name}")
            names.add(fname)
            self.fields.append(StructField(fname, fty, offset))
            offset += fty.size()
        self._size = offset
        self._sealed = True
        return self

    @property
    def is_opaque(self) -> bool:
        return not self._sealed

    def size(self) -> int:
        if not self._sealed:
            raise IRTypeError(f"struct {self.name} is opaque (no body)")
        return self._size

    def field(self, name: str) -> StructField:
        for f in self.fields:
            if f.name == name:
                return f
        raise IRTypeError(f"struct {self.name} has no field {name!r}")

    def field_index(self, name: str) -> int:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise IRTypeError(f"struct {self.name} has no field {name!r}")

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))


class ArrayType(Type):
    """A fixed-length array of ``count`` elements of ``element`` type."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise IRTypeError(f"negative array length: {count}")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class FunctionType(Type):
    """The type of a function: return type plus parameter types."""

    __slots__ = ("ret", "params")

    def __init__(self, ret: Type, params: Sequence[Type]):
        self.ret = ret
        self.params = tuple(params)

    def size(self) -> int:
        return WORD_SIZE  # function references are word-sized

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"fn({params}) -> {self.ret}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
        )

    def __hash__(self) -> int:
        return hash(("fn", self.ret, self.params))


# Commonly used singleton-ish instances.  Types are value objects so it is
# fine to construct new ones; these exist for readability.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F64 = FloatType()
LOCK = LockType()
COND = CondType()
RWLOCK = RwLockType()
SEMA = SemType()
BARRIER = BarrierType()
THREAD = ThreadType()


def ptr(pointee: Type) -> PointerType:
    """Shorthand constructor for :class:`PointerType`."""
    return PointerType(pointee)


def pointee_of(ty: Type) -> Type:
    """Return the pointee of ``ty``, raising IRTypeError for non-pointers."""
    if not isinstance(ty, PointerType):
        raise IRTypeError(f"expected a pointer type, got {ty}")
    return ty.pointee
