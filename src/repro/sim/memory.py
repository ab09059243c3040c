"""The simulated flat address space.

Every allocation (global, stack slot, heap object) becomes a
:class:`MemoryObject` with a unique base address from a bump allocator.
Word-granular values live in a sparse dict keyed by absolute address.
Accesses are validated: null/unmapped/out-of-bounds/freed accesses raise
:class:`GuestFault`, which the machine converts into the fail-stop crash
failures that trigger Lazy Diagnosis.

Each object remembers its *allocation site* (the uid of the alloca /
malloc instruction, or the global's uid).  Allocation sites are exactly
the abstract objects of the points-to analyses, so diagnosis results can
be cross-checked against concrete addresses in tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.ir.types import Type

NULL_GUARD_SIZE = 0x1000
"""Addresses below this are never mapped; dereferencing them is a null crash."""

_OBJECT_GAP = 64
"""Unmapped red-zone bytes between objects, so overflows fault."""


class GuestFault(Exception):
    """An invalid memory access by the simulated program (not a host bug)."""

    def __init__(self, kind: str, address: int, detail: str = ""):
        self.kind = kind  # "null" | "unmapped" | "oob" | "use-after-free"
        self.address = address
        self.detail = detail
        super().__init__(f"{kind} access at 0x{address:x}{': ' + detail if detail else ''}")


@dataclass(slots=True)
class MemoryObject:
    base: int
    size: int
    kind: str  # "global" | "stack" | "heap"
    alloc_site: int  # uid of the allocating instruction / global
    ty: Type | None
    freed: bool = False
    label: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " freed" if self.freed else ""
        return (
            f"<MemoryObject {self.kind} base=0x{self.base:x} size={self.size}"
            f" site={self.alloc_site}{state}>"
        )


class Memory:
    def __init__(self):
        self._next_base = NULL_GUARD_SIZE
        # every object and its base, in allocation order: bases are
        # bump-allocated, so that order is also address order, the one
        # containment lookup bisects
        self._bases: list[int] = []
        self._objects: list[MemoryObject] = []
        # address -> its object, filled by the first successful lookup:
        # bases are bump-allocated and never reused, so an entry never
        # goes stale (a freed object stays, flagged, at its address)
        self._owners: dict[int, MemoryObject] = {}
        self._words: dict[int, object] = {}
        self.bytes_allocated = 0

    def copy(self) -> "Memory":
        """A new address space that starts as this one is now.  Objects
        are shared, not copied, so copy only a space whose objects no
        access can change: a machine copies its module's globals, which
        no free or frame pop ever marks dead."""
        other = Memory.__new__(Memory)
        other._next_base = self._next_base
        other._bases = self._bases.copy()
        other._objects = self._objects.copy()
        other._owners = self._owners.copy()
        other._words = self._words.copy()
        other.bytes_allocated = self.bytes_allocated
        return other

    # -- allocation -----------------------------------------------------

    def allocate(
        self, size: int, kind: str, alloc_site: int, ty: Type | None = None, label: str = ""
    ) -> MemoryObject:
        if size < 0:
            raise SimulationError(f"negative allocation size {size}")
        if size < 8:
            size = 8
        base = self._next_base
        obj = MemoryObject(base, size, kind, alloc_site, ty, False, label)
        self._next_base = base + size + _OBJECT_GAP
        self._bases.append(base)
        self._objects.append(obj)
        self.bytes_allocated += size
        # zero-initialize: absent words read as 0 (see read_word)
        return obj

    def free(self, address: int) -> MemoryObject:
        obj = self.object_at(address)
        if obj is None:
            raise GuestFault("unmapped", address, "free of unmapped address")
        if obj.base != address:
            raise GuestFault("oob", address, "free of interior pointer")
        if obj.freed:
            raise GuestFault("use-after-free", address, "double free")
        if obj.kind != "heap":
            raise GuestFault("oob", address, f"free of {obj.kind} object")
        obj.freed = True
        return obj

    def release_stack(self, obj: MemoryObject) -> None:
        """Mark a stack slot dead when its frame pops (dangling-pointer bugs)."""
        obj.freed = True

    # -- lookup ------------------------------------------------------------

    def object_at(self, address: int) -> MemoryObject | None:
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx < 0:
            return None
        obj = self._objects[idx]
        return obj if address < obj.base + obj.size else None

    def objects(self) -> list[MemoryObject]:
        return self._objects.copy()

    # -- access --------------------------------------------------------------

    def check_access(self, address: int) -> MemoryObject:
        obj = self._owners.get(address)
        if obj is None:
            if 0 <= address < NULL_GUARD_SIZE:
                raise GuestFault("null", address)
            obj = self.object_at(address)
            if obj is None:
                raise GuestFault("unmapped", address)
            self._owners[address] = obj
        if obj.freed:
            raise GuestFault("use-after-free", address, f"object from site {obj.alloc_site}")
        if address % 8 != 0:
            raise GuestFault("oob", address, "misaligned word access")
        return obj

    # read_word/write_word inline check_access's hit path: an address
    # seen before, of a live object, aligned

    def read_word(self, address: int) -> object:
        obj = self._owners.get(address)
        if obj is None or obj.freed or address % 8:
            self.check_access(address)
        return self._words.get(address, 0)

    def write_word(self, address: int, value: object) -> None:
        obj = self._owners.get(address)
        if obj is None or obj.freed or address % 8:
            self.check_access(address)
        self._words[address] = value

    def peek_word(self, address: int) -> object:
        """Unchecked read for inspection in tests/debugging."""
        return self._words.get(address, 0)
