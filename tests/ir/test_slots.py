"""The slots guard: every IR object a corpus module is made of is
slotted all the way up and carries no ``__dict__``.

A new instruction, value or type class added without ``__slots__``
fails here, because the class walk reaches every subclass that lives
under ``repro``."""

import pytest

from repro.corpus import all_bugs
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, SourceLoc
from repro.ir.types import StructField, StructType, Type
from repro.ir.values import Value


def _subclasses(root: type) -> list[type]:
    out, stack = [], [root]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("repro."):
            out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


def _slotted_all_the_way_up(cls: type) -> bool:
    return all("__slots__" in vars(base) for base in cls.__mro__[:-1])


IR_CLASSES = sorted(
    {*_subclasses(Value), *_subclasses(Type), BasicBlock, Function, StructField, SourceLoc},
    key=lambda cls: (cls.__module__, cls.__qualname__),
)


@pytest.mark.parametrize("cls", IR_CLASSES, ids=lambda cls: cls.__qualname__)
def test_class_is_slotted(cls):
    assert _slotted_all_the_way_up(cls), [
        base.__qualname__ for base in cls.__mro__[:-1] if "__slots__" not in vars(base)
    ]


def test_walk_reaches_every_instruction_class():
    names = {cls.__name__ for cls in _subclasses(Instruction)}
    assert {"Load", "Store", "CondBr", "SemInit", "BarrierWait", "Assert"} <= names


def _module_objects(module):
    """Every IR object reachable from a module's structs, globals and
    functions (types, values, blocks, instructions, locations)."""
    seen: dict[int, object] = {}
    stack: list = [*module.structs.values(), *module.globals.values()]
    stack += module.functions.values()
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, Function):
            stack += [obj.type, *obj.params, *obj.blocks]
        elif isinstance(obj, BasicBlock):
            stack += obj.instructions
        elif isinstance(obj, Value):
            stack.append(obj.ty)
            if isinstance(obj, Instruction):
                stack += [*obj.operands, obj.loc]
                stack += [
                    getattr(obj, name) for name in (
                        "allocated_type", "struct_type", "element_type",
                        "target", "then_block", "else_block", "function_type",
                    ) if hasattr(obj, name)
                ]
            elif hasattr(obj, "value_type"):
                stack += [obj.value_type, obj.initializer]
        elif isinstance(obj, StructType):
            stack += obj.fields
        elif isinstance(obj, StructField):
            stack.append(obj.ty)
        elif isinstance(obj, Type):
            stack += [
                getattr(obj, name) for name in ("pointee", "element", "ret")
                if hasattr(obj, name)
            ]
            stack += getattr(obj, "params", ())
    return list(seen.values())


def test_corpus_modules_carry_no_instance_dict():
    classes = set()
    for spec in all_bugs():
        for obj in _module_objects(spec.module()):
            classes.add(type(obj))
            assert not hasattr(obj, "__dict__"), (spec.bug_id, type(obj).__qualname__)
    assert all(cls in IR_CLASSES for cls in classes), classes - set(IR_CLASSES)
    assert {BasicBlock, Function, StructField, SourceLoc} <= classes
