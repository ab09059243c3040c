"""The run-level walk: one straight-line run per step, split at the stop.

The decoder walks a module's walk table (``Module.walk``), emitting each
straight-line run up to its control instruction as one record.  These
pin the parts the corpus goldens reach only indirectly: the split at a
stop uid that a loop revisits with packets still queued, the runaway
budget, unknown TIP targets, the table's lifetime, and the
``DynamicInstruction`` value type.
"""

import pickle

import pytest

from repro.errors import IRError, TraceDecodeError
from repro.ir import parse_module
from repro.pt import PTDriver, TraceConfig, decode_thread_trace
from repro.pt import decoder
from repro.pt.decoder import DynamicInstruction
from repro.pt.packets import (
    encode_fup,
    encode_mtc,
    encode_psb,
    encode_tip,
    encode_tsc,
)
from repro.sim import Machine, RandomScheduler

LOOP = """
module t
global g: i64 = 0

func leaf(x: i64) -> i64 {
entry:
  %r = add %x, 10
  ret %r
}

func main(n: i64) -> void {
entry:
  %i = alloca i64
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = cmp lt %iv, %n
  cbr %c, body, done
body:
  %v = call @leaf(%iv)
  store %v, @g
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  ret
}
"""

SPIN = """
module t

func main() -> void {
entry:
  br spin
spin:
  br spin
}
"""

RET = """
module t

func main() -> void {
entry:
  ret
}
"""


def _body(module):
    """uids of the loop body's resume run: store @g, add, store, br."""
    return [i.uid for i in module.function("main").blocks[2].instructions[1:]]


def _breakpoint_trace(skip: int, n: int = 20):
    module = parse_module(LOOP)
    driver = PTDriver(TraceConfig())
    machine = Machine(module, scheduler=RandomScheduler(0), trace_driver=driver)
    store_g, add, store_i, br = _body(module)
    driver.arm_breakpoint(machine, add, skip=skip)
    assert machine.run("main", (n,)).outcome == "success"
    (trace,) = driver.snapshot.decode(module).values()
    return module, trace


@pytest.mark.parametrize("skip", [0, 1, 5, 12])
def test_walk_continues_past_a_stop_uid_the_loop_revisits(skip):
    module, trace = _breakpoint_trace(skip)
    store_g, add, store_i, br = _body(module)
    assert trace.stop_uid == add  # mid-run: store @g precedes it
    uids = [d.uid for d in trace.instructions]
    # every earlier visit split the run and walked on; the last one stops
    assert uids.count(add) == skip
    assert uids.count(store_i) == uids.count(br) == skip
    assert uids.count(store_g) == skip + 1
    assert uids[-1] == store_g
    assert [d.seq for d in trace.instructions] == list(range(len(uids)))
    for d in trace.instructions:
        assert d.t_lo <= d.t_hi


def test_runaway_walk_hits_the_budget(monkeypatch):
    module = parse_module(SPIN)
    spin = module.function("main").blocks[1].instructions[0].uid
    # the trailing MTC keeps TSC + FUP from reading as a stop marker
    data = encode_psb() + encode_tsc(1000) + encode_fup(spin) + encode_mtc(1)
    monkeypatch.setattr(decoder, "_MAX_DECODED", 10_000)
    with pytest.raises(TraceDecodeError, match=r"decode budget exceeded \(runaway walk\)"):
        decode_thread_trace(module, data, 1)


def test_tip_to_an_unknown_uid_raises_irerror():
    module = parse_module(RET)
    ret = module.function("main").entry.instructions[0].uid
    data = encode_psb() + encode_tsc(1000) + encode_fup(ret) + encode_tip(9999)
    with pytest.raises(IRError, match="has no instruction uid=9999"):
        decode_thread_trace(module, data, 1)


def test_refinalize_drops_the_walk_table():
    module, _ = _breakpoint_trace(3)
    assert module.walk
    module.refinalize()
    assert module.walk == {}


def test_walk_entry_ends_at_the_control_instruction():
    module, _ = _breakpoint_trace(3)
    store_g, add, store_i, br = _body(module)
    loop = module.function("main").blocks[1].instructions[0].uid
    uids, instr, kind, succ = module.walk[store_g]
    assert uids == (store_g, add, store_i, br)
    assert instr.uid == br and kind == decoder._BR and succ == (loop,)


def test_dynamic_instruction_value_semantics():
    a = DynamicInstruction(7, 1, 0, 100, 200)
    same = DynamicInstruction(uid=7, tid=1, seq=0, t_lo=100, t_hi=200)
    assert a == same and hash(a) == hash(same)
    assert a != DynamicInstruction(7, 1, 1, 100, 200)
    assert repr(a) == "DynamicInstruction(uid=7, tid=1, seq=0, t_lo=100, t_hi=200)"
    assert a.interval() == (100, 200)
    # same thread: program order; other threads: disjoint intervals only
    assert a.before(DynamicInstruction(8, 1, 1, 0, 0))
    assert not DynamicInstruction(8, 1, 1, 0, 0).before(a)
    assert a.before(DynamicInstruction(9, 2, 0, 200, 300))
    assert not a.before(DynamicInstruction(9, 2, 0, 150, 300))
    assert pickle.loads(pickle.dumps(a)) == a
    assert type(pickle.loads(pickle.dumps(a))) is DynamicInstruction
