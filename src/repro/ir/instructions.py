"""IR instructions.

The instruction set is the subset of LLVM IR that Lazy Diagnosis's
analyses consume, plus the concurrency intrinsics the simulator executes
(`lock`, `unlock`, `spawn`, `join`) and a `delay` instruction that models
application work (parsing, I/O, network) at nanosecond granularity —
that is what creates the coarse inter-event gaps the paper's hypothesis
is about.

Instructions producing a result are SSA temporaries within their basic
block; all cross-block dataflow goes through `alloca` slots via
load/store, like clang -O0 output.  Each instruction gets a module-unique
integer ``uid`` when the module is finalized; the uid doubles as the
"program counter" used by trace snapshots, breakpoints, and diagnosis
reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import IRTypeError
from repro.ir.types import (
    I1,
    THREAD,
    VOID,
    ArrayType,
    BarrierType,
    CondType,
    FunctionType,
    IntType,
    LockType,
    PointerType,
    RwLockType,
    SemType,
    StructType,
    Type,
    pointee_of,
)
from repro.ir.values import FunctionRef, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock


class SourceLoc:
    """A synthetic source location (file, line) attached to instructions.

    The corpus programs assign locations so diagnosis reports read like
    the paper's (``pbzip2.c:1048``).
    """

    __slots__ = ("file", "line")

    def __init__(self, file: str, line: int):
        self.file = file
        self.line = line

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLoc)
            and other.file == self.file
            and other.line == self.line
        )

    def __hash__(self) -> int:
        return hash((self.file, self.line))


class Instruction(Value):
    """Base class for all instructions."""

    __slots__ = ("operands", "parent", "uid", "block_index", "loc")

    opcode: str = "<abstract>"
    # True on the block-ending instructions: br, cbr and ret
    is_terminator: bool = False

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        self.ty = ty  # Value's two fields, set here to save a call per instruction
        self.name = name
        self.operands: list[Value] = list(operands)
        self.parent: "BasicBlock | None" = None
        self.uid: int = -1  # assigned by Module.finalize()
        self.block_index: int = -1  # position within parent block (finalize)
        self.loc: SourceLoc | None = None

    # -- classification helpers used throughout the analyses ------------

    @property
    def is_memory_read(self) -> bool:
        return isinstance(self, Load)

    @property
    def is_memory_write(self) -> bool:
        return isinstance(self, Store)

    @property
    def is_memory_access(self) -> bool:
        return self.is_memory_read or self.is_memory_write

    @property
    def is_lock_op(self) -> bool:
        return isinstance(self, (Lock, Unlock))

    @property
    def is_allocation(self) -> bool:
        return isinstance(self, (Alloca, Malloc))

    def pointer_operand(self) -> Value | None:
        """The pointer this instruction dereferences, if any.

        This is the operand whose points-to set the diagnosis pipeline
        inspects: the address of a load/store, or the lock word of a
        lock/unlock.
        """
        if isinstance(self, Load):
            return self.operands[0]
        if isinstance(self, Store):
            return self.operands[1]
        if isinstance(self, (Lock, Unlock, Free)):
            return self.operands[0]
        if isinstance(self, _SyncOp):
            return self.operands[0]
        return None

    def describe(self) -> str:
        """One-line human description used in diagnosis reports."""
        where = f" at {self.loc}" if self.loc else ""
        return f"{self.opcode} (uid={self.uid}){where}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} uid={self.uid} {self.short()}>"


class Alloca(Instruction):
    """Reserve a stack slot for one value of ``allocated_type``.

    Executed once per function activation (slots are grouped into the
    frame at call time regardless of where the alloca appears).
    """

    __slots__ = ("allocated_type",)

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class Malloc(Instruction):
    """Allocate a heap object of ``allocated_type`` (times ``count``)."""

    __slots__ = ("allocated_type",)

    opcode = "malloc"

    def __init__(self, allocated_type: Type, count: Value | None = None, name: str = ""):
        operands = [count] if count is not None else []
        super().__init__(PointerType(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Value | None:
        return self.operands[0] if self.operands else None


class Free(Instruction):
    """Release a heap object; subsequent access is a crash (dangling)."""

    __slots__ = ()

    opcode = "free"

    def __init__(self, pointer: Value):
        if not pointer.ty.is_pointer():
            raise IRTypeError(f"free of non-pointer {pointer.ty}")
        super().__init__(VOID, [pointer])

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Load(Instruction):
    """Read the value at ``pointer``; result type is the pointee type."""

    __slots__ = ()

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        pointee = pointee_of(pointer.ty)
        if pointee.is_aggregate():
            raise IRTypeError("loads of whole aggregates are not supported")
        super().__init__(pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Write ``value`` to ``pointer``."""

    __slots__ = ()

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        pointee = pointee_of(pointer.ty)
        if pointee != value.ty:
            raise IRTypeError(
                f"store type mismatch: storing {value.ty} through ptr<{pointee}>"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class FieldAddr(Instruction):
    """Compute the address of a struct field (a restricted GEP)."""

    __slots__ = ("struct_type", "field_name", "offset")

    opcode = "fieldaddr"

    def __init__(self, pointer: Value, field_name: str, name: str = ""):
        base_ty = pointee_of(pointer.ty)
        if not isinstance(base_ty, StructType):
            raise IRTypeError(f"fieldaddr base must point to a struct, got {base_ty}")
        field = base_ty.field(field_name)
        super().__init__(PointerType(field.ty), [pointer], name)
        self.struct_type = base_ty
        self.field_name = field_name
        self.offset = field.offset

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class IndexAddr(Instruction):
    """Compute the address of an array element (pointer arithmetic).

    ``pointer`` may point at an array (indexes into it) or at a scalar
    (plain pointer arithmetic in element units), like a one-index GEP.
    """

    __slots__ = ("element_type",)

    opcode = "indexaddr"

    def __init__(self, pointer: Value, index: Value, name: str = ""):
        base_ty = pointee_of(pointer.ty)
        if isinstance(base_ty, ArrayType):
            elem = base_ty.element
        else:
            elem = base_ty
        if not isinstance(index.ty, IntType):
            raise IRTypeError(f"index must be an integer, got {index.ty}")
        super().__init__(PointerType(elem), [pointer, index], name)
        self.element_type = elem

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


_BINOPS = {"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr"}


class BinOp(Instruction):
    """Integer/float arithmetic; result has the left operand's type."""

    __slots__ = ("op",)

    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in _BINOPS:
            raise IRTypeError(f"unknown binary op {op!r}")
        if lhs.ty != rhs.ty:
            raise IRTypeError(f"binop operand mismatch: {lhs.ty} vs {rhs.ty}")
        super().__init__(lhs.ty, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


_CMPOPS = {"eq", "ne", "lt", "le", "gt", "ge"}


class Cmp(Instruction):
    """Comparison producing an i1."""

    __slots__ = ("op",)

    opcode = "cmp"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in _CMPOPS:
            raise IRTypeError(f"unknown comparison op {op!r}")
        if lhs.ty != rhs.ty:
            raise IRTypeError(f"cmp operand mismatch: {lhs.ty} vs {rhs.ty}")
        super().__init__(I1, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cast(Instruction):
    """Reinterpret a value as another word-sized type (bitcast).

    Casts are what create the type mismatches the paper's type-based
    ranking must tolerate: an ``i32*`` may actually refer to a ``Queue``
    object (§4.3).
    """

    __slots__ = ()

    opcode = "cast"

    def __init__(self, value: Value, to_type: Type, name: str = ""):
        if to_type.is_aggregate() or isinstance(to_type, (FunctionType,)):
            raise IRTypeError(f"cannot cast to {to_type}")
        super().__init__(to_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]


class Br(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)

    opcode = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [])
        self.target = target

    def successors(self) -> list["BasicBlock"]:
        return [self.target]


class CondBr(Instruction):
    """Conditional branch: the only instruction that emits TNT bits."""

    __slots__ = ("then_block", "else_block")

    opcode = "cbr"
    is_terminator = True

    def __init__(self, cond: Value, then_block: "BasicBlock", else_block: "BasicBlock"):
        if cond.ty != I1:
            raise IRTypeError(f"branch condition must be i1, got {cond.ty}")
        super().__init__(VOID, [cond])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> list["BasicBlock"]:
        return [self.then_block, self.else_block]


class Ret(Instruction):
    """Return from the current function."""

    __slots__ = ()

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Value | None = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None

    def successors(self) -> list["BasicBlock"]:
        return []


class Call(Instruction):
    """Direct (callee is a FunctionRef) or indirect (pointer) call."""

    __slots__ = ("function_type",)

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        fn_ty = _callee_function_type(callee)
        if len(args) != len(fn_ty.params):
            raise IRTypeError(
                f"call arity mismatch: {len(args)} args for {len(fn_ty.params)} params"
            )
        for i, (arg, pty) in enumerate(zip(args, fn_ty.params)):
            if arg.ty != pty:
                raise IRTypeError(f"call arg {i} type mismatch: {arg.ty} vs {pty}")
        super().__init__(fn_ty.ret, [callee, *args], name)
        self.function_type = fn_ty

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> list[Value]:
        return self.operands[1:]

    @property
    def is_direct(self) -> bool:
        return isinstance(self.callee, FunctionRef)


def _callee_function_type(callee: Value) -> FunctionType:
    if isinstance(callee, FunctionRef):
        return callee.function.type
    ty = callee.ty
    if isinstance(ty, PointerType) and isinstance(ty.pointee, FunctionType):
        return ty.pointee
    if isinstance(ty, FunctionType):
        return ty
    raise IRTypeError(f"callee is not a function or function pointer: {ty}")


class LockInit(Instruction):
    """Initialize a mutex word."""

    __slots__ = ()

    opcode = "lockinit"

    def __init__(self, pointer: Value):
        _require_lock_pointer(pointer, "lockinit")
        super().__init__(VOID, [pointer])

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Lock(Instruction):
    """Acquire a mutex; blocks (and may deadlock) if held."""

    __slots__ = ()

    opcode = "lock"

    def __init__(self, pointer: Value):
        _require_lock_pointer(pointer, "lock")
        super().__init__(VOID, [pointer])

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Unlock(Instruction):
    """Release a mutex held by the current thread."""

    __slots__ = ()

    opcode = "unlock"

    def __init__(self, pointer: Value):
        _require_lock_pointer(pointer, "unlock")
        super().__init__(VOID, [pointer])

    @property
    def pointer(self) -> Value:
        return self.operands[0]


def _require_lock_pointer(pointer: Value, what: str) -> None:
    ty = pointer.ty
    if not (isinstance(ty, PointerType) and isinstance(ty.pointee, LockType)):
        raise IRTypeError(f"{what} operand must be ptr<lock>, got {ty}")


def _require_sync_pointer(pointer: Value, pointee_cls: type, what: str) -> None:
    ty = pointer.ty
    if not (isinstance(ty, PointerType) and isinstance(ty.pointee, pointee_cls)):
        want = pointee_cls().__str__()  # CondType() -> "cond", etc.
        raise IRTypeError(f"{what} operand must be ptr<{want}>, got {ty}")


class _SyncOp(Instruction):
    """Base for the sync-primitive intrinsics whose first operand is the
    primitive word's address (the pointer diagnosis inspects)."""

    __slots__ = ()

    _pointee_cls: type = Type

    def __init__(self, pointer: Value, extra: Sequence[Value] = ()):
        _require_sync_pointer(pointer, self._pointee_cls, self.opcode)
        super().__init__(VOID, [pointer, *extra])

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class CondInit(_SyncOp):
    """Initialize a condition-variable word (empty wait queue)."""

    __slots__ = ()

    opcode = "condinit"
    _pointee_cls = CondType


class CondWait(_SyncOp):
    """Block until a later ``condnotify`` on the same address.

    The wait is unconditional (no predicate re-check, no mutex): a
    notify that fires *before* the wait is lost, so programs that rely
    on signal delivery order contain a latent lost-wakeup hang.
    """

    __slots__ = ()

    opcode = "condwait"
    _pointee_cls = CondType


class CondNotify(_SyncOp):
    """Wake the longest-waiting thread blocked on this condition
    variable (FIFO); a no-op — the signal is dropped — if none waits."""

    __slots__ = ()

    opcode = "condnotify"
    _pointee_cls = CondType


class RwInit(_SyncOp):
    """Initialize a reader-writer lock word (free)."""

    __slots__ = ()

    opcode = "rwinit"
    _pointee_cls = RwLockType


class RwRdLock(_SyncOp):
    """Acquire in shared (reader) mode; blocks while a writer holds."""

    __slots__ = ()

    opcode = "rwrdlock"
    _pointee_cls = RwLockType


class RwWrLock(_SyncOp):
    """Acquire in exclusive (writer) mode; blocks while anyone holds."""

    __slots__ = ()

    opcode = "rwwrlock"
    _pointee_cls = RwLockType


class RwUnlock(_SyncOp):
    """Release whichever mode the current thread holds."""

    __slots__ = ()

    opcode = "rwunlock"
    _pointee_cls = RwLockType


class SemInit(_SyncOp):
    """Initialize a counting semaphore to ``count`` permits."""

    __slots__ = ()

    opcode = "seminit"
    _pointee_cls = SemType

    def __init__(self, pointer: Value, count: Value):
        if not isinstance(count.ty, IntType):
            raise IRTypeError(f"seminit count must be an integer, got {count.ty}")
        super().__init__(pointer, [count])

    @property
    def count(self) -> Value:
        return self.operands[1]


class SemWait(_SyncOp):
    """P: take one permit, blocking while the count is zero."""

    __slots__ = ()

    opcode = "semwait"
    _pointee_cls = SemType


class SemPost(_SyncOp):
    """V: return one permit, waking the longest-blocked waiter if any."""

    __slots__ = ()

    opcode = "sempost"
    _pointee_cls = SemType


class BarrierInit(_SyncOp):
    """Initialize a cyclic barrier for ``parties`` threads per phase."""

    __slots__ = ()

    opcode = "barrierinit"
    _pointee_cls = BarrierType

    def __init__(self, pointer: Value, parties: Value):
        if not isinstance(parties.ty, IntType):
            raise IRTypeError(
                f"barrierinit parties must be an integer, got {parties.ty}"
            )
        super().__init__(pointer, [parties])

    @property
    def parties(self) -> Value:
        return self.operands[1]


class BarrierWait(_SyncOp):
    """Block until ``parties`` threads have arrived, then release all."""

    __slots__ = ()

    opcode = "barrierwait"
    _pointee_cls = BarrierType


class Spawn(Instruction):
    """Start a new thread running ``callee(args...)``; yields a handle."""

    __slots__ = ("function_type",)

    opcode = "spawn"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        fn_ty = _callee_function_type(callee)
        if len(args) != len(fn_ty.params):
            raise IRTypeError(
                f"spawn arity mismatch: {len(args)} args for {len(fn_ty.params)} params"
            )
        super().__init__(THREAD, [callee, *args], name)
        self.function_type = fn_ty

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> list[Value]:
        return self.operands[1:]


class Join(Instruction):
    """Wait for the thread behind ``handle`` to finish."""

    __slots__ = ()

    opcode = "join"

    def __init__(self, handle: Value):
        if handle.ty != THREAD:
            raise IRTypeError(f"join operand must be a thread handle, got {handle.ty}")
        super().__init__(VOID, [handle])

    @property
    def handle(self) -> Value:
        return self.operands[0]


class Delay(Instruction):
    """Advance the thread's virtual time by ``duration`` nanoseconds.

    This models the application work between target events (request
    parsing, disk/network I/O, computation) that makes real concurrency
    bugs *coarsely* interleaved.  The duration operand is usually loaded
    from a workload-generated table, so different executions get
    different inter-event gaps.
    """

    __slots__ = ()

    opcode = "delay"

    def __init__(self, duration: Value):
        if not isinstance(duration.ty, IntType):
            raise IRTypeError(f"delay duration must be an integer, got {duration.ty}")
        super().__init__(VOID, [duration])

    @property
    def duration(self) -> Value:
        return self.operands[0]


class Assert(Instruction):
    """Crash the thread if ``cond`` is false.

    This is the paper's "custom mode of failure" (§7): a developer
    assertion that lets Snorlax treat a semantic violation as fail-stop.
    """

    __slots__ = ("message",)

    opcode = "assert"

    def __init__(self, cond: Value, message: str = "assertion failed"):
        if cond.ty != I1:
            raise IRTypeError(f"assert condition must be i1, got {cond.ty}")
        super().__init__(VOID, [cond])
        self.message = message

    @property
    def cond(self) -> Value:
        return self.operands[0]
