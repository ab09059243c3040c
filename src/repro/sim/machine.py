"""The multithreaded IR interpreter.

``Machine`` executes a finalized :class:`repro.ir.Module` under a
scheduling policy, producing an :class:`ExecutionResult`.  It plays the
role of the paper's client hardware: programs run to completion, crash
(fail-stop memory errors / assertion failures), deadlock (wait-for-graph
cycle), or hang (global stall without a cycle).

Extension points:

* ``trace_driver`` — the PT-like driver of :mod:`repro.pt.driver`.  It
  hands each thread a :class:`~repro.pt.encoder.ThreadEncoder` when the
  thread starts (``SimThread.trace``); the interpreter reports the
  thread's branches, calls, returns, delays, blocks and wakes to that
  encoder directly and charges the overhead ns each returns to the
  clock.  A thread returning from its root is ended at the driver.
* ``instrumentation`` — a per-instruction hook charged before execution;
  the Gist baseline implements its monitoring (and its contention
  overhead model) here.
* ``event_log`` — ground-truth timestamping of watched target
  instructions (the §3.2 study's clock_gettime instrumentation).
* ``breakpoints`` — uid-keyed callbacks, used by the runtime client to
  snapshot traces at a previous failure location (step 8 in Figure 2).

Execution is one loop of scheduling rounds (``Machine._loop``), each
running its quantum inline over pre-decoded instructions: the first
time a block runs, each instruction is compiled into a closure
specialised on its operands, and the block's code is kept on the module
for every later machine (see "pre-decoded code" below).  Sleeping
threads are kept in a heap by wake time, so a round neither scans the
threads for expired delays nor rebuilds more than its runnable list.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.errors import SimulationError, StepLimitExceeded
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    Assert,
    BarrierInit,
    BarrierWait,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
    CondInit,
    CondNotify,
    CondWait,
    Delay,
    FieldAddr,
    Free,
    IndexAddr,
    Instruction,
    Join,
    Load,
    Lock,
    LockInit,
    Malloc,
    Ret,
    RwInit,
    RwRdLock,
    RwUnlock,
    RwWrLock,
    SemInit,
    SemPost,
    SemWait,
    Spawn,
    Store,
    Unlock,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType
from repro.ir.values import (
    Argument,
    Constant,
    FunctionRef,
    GlobalVariable,
    NullPointer,
    Value,
)
from repro.sim.clock import CostModel, VirtualClock
from repro.sim.events import EventLog, TargetEvent
from repro.sim.failures import (
    CrashReport,
    DeadlockEntry,
    DeadlockReport,
    ExecutionResult,
    FailureReport,
    ThreadStats,
)
from repro.sim.memory import GuestFault, Memory, MemoryObject
from repro.sim.scheduler import RandomScheduler, Scheduler

if TYPE_CHECKING:
    from repro.pt.driver import PTDriver
    from repro.pt.encoder import ThreadEncoder


class Instrumentation(Protocol):
    """A per-instruction software hook (how Gist-style tools monitor)."""

    def before_instruction(
        self, machine: "Machine", tid: int, instr: Instruction
    ) -> int:
        """Return extra ns charged to the clock for this instruction."""
        ...


@dataclass
class Frame:
    function: Function
    block: BasicBlock
    index: int = 0
    values: dict[Value, Any] = field(default_factory=dict)
    allocas: dict[Alloca, MemoryObject] = field(default_factory=dict)
    call_site: Call | None = None  # instruction in the caller to resume


RUNNABLE = "runnable"
SLEEPING = "sleeping"
BLOCKED_LOCK = "blocked-lock"
BLOCKED_JOIN = "blocked-join"
BLOCKED_COND = "blocked-cond"
BLOCKED_RW = "blocked-rw"
BLOCKED_SEMA = "blocked-sema"
BLOCKED_BARRIER = "blocked-barrier"
DONE = "done"
CRASHED = "crashed"

# states whose waits participate in the wait-for graph (known owners);
# cond/sema/barrier waits have no owner and can only hang
_DEADLOCKABLE_STATES = (BLOCKED_LOCK, BLOCKED_RW)
_ENDED_STATES = (DONE, CRASHED)


@dataclass
class SimThread:
    tid: int
    root: str = ""  # entry function name; survives frame pops at exit
    frames: list[Frame] = field(default_factory=list)
    state: str = RUNNABLE
    wake_time: int = 0
    join_target: int | None = None
    pending_lock: int | None = None  # address being acquired
    pending_lock_instr: int = 0
    return_value: Any = None
    trace: ThreadEncoder | None = None  # set at start when traced

    @property
    def alive(self) -> bool:
        return self.state not in _ENDED_STATES

    @property
    def frame(self) -> Frame:
        return self.frames[-1]


class Machine:
    def __init__(
        self,
        module: Module,
        scheduler: Scheduler | None = None,
        cost_model: CostModel | None = None,
        trace_driver: PTDriver | None = None,
        instrumentation: Instrumentation | None = None,
        watch_uids: set[int] | None = None,
        max_steps: int = 20_000_000,
    ):
        if not module.finalized:
            raise SimulationError("module must be finalized before execution")
        self.module = module
        self.scheduler = scheduler or RandomScheduler(seed=0)
        self.costs = cost_model or CostModel()
        self.driver = trace_driver
        self.instrumentation = instrumentation
        self.event_log = EventLog(watch_uids or ())
        self.max_steps = max_steps
        self.clock = VirtualClock()
        self.memory = Memory()
        self.threads: dict[int, SimThread] = {}
        # every SLEEPING thread, as a heap of (wake_time, tid, thread):
        # a delay pushes its thread, _wake_sleepers pops the expired
        # ones, and the earliest wake time is always at [0]
        self._sleeping: list[tuple[int, int, SimThread]] = []
        self.locks: "LockTableShim" = LockTableShim()
        self.breakpoints: dict[int, Callable[["Machine", SimThread, Instruction], None]] = {}
        self._global_addr: dict[str, int] = {}
        self._next_tid = 1
        self._failure: FailureReport | None = None
        self._outcome: str | None = None
        self._steps = 0
        self.stats: dict[int, ThreadStats] = {}
        self._costs = _price_table(self.costs)
        self._init_globals()

    # -- setup ------------------------------------------------------------

    def _init_globals(self) -> None:
        # Globals are laid out first, in declaration order, in an empty
        # address space: every machine of a module gives a global the
        # same address, which is what lets pre-decoded code use it as a
        # constant.
        for g in self.module.globals.values():
            obj = self.memory.allocate(
                g.value_type.size(), "global", g.uid, g.value_type, label=g.name
            )
            self._global_addr[g.name] = obj.base
            if g.initializer is not None:
                init = g.initializer
                if isinstance(init, Constant):
                    self.memory.write_word(obj.base, init.value)
                elif isinstance(init, NullPointer):
                    self.memory.write_word(obj.base, 0)
                else:
                    raise SimulationError(
                        f"unsupported global initializer for @{g.name}"
                    )

    def global_address(self, name: str) -> int:
        return self._global_addr[name]

    def thread_position(self, thread: SimThread) -> int:
        """The thread's current/next instruction uid (0 once exited)."""
        if not thread.frames:
            return 0
        frame = thread.frame
        if frame.index < len(frame.block.instructions):
            return frame.block.instructions[frame.index].uid
        return 0

    def thread_positions(self) -> dict[int, int]:
        """Each thread's current/next instruction uid (0 for exited threads).

        For a crashed thread this is the failing instruction; for a
        thread blocked on a lock it is the blocked acquisition.  The PT
        driver stores these as the FUP stop markers of a trace snapshot.
        """
        return {
            t.tid: self.thread_position(t) for t in self.threads.values()
        }

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> ExecutionResult:
        main = self._spawn_thread(self.module.function(entry), list(args))
        try:
            self._loop()
        except StepLimitExceeded:
            self._outcome = "step-limit"
        return ExecutionResult(
            outcome=self._outcome or "success",
            duration=self.clock.now,
            failure=self._failure,
            event_log=self.event_log,
            thread_stats=self.stats,
            instructions_executed=self._steps,
            exit_value=self.threads[main.tid].return_value,
        )

    # -- main loop --------------------------------------------------------------

    def _loop(self) -> None:
        """Scheduling rounds until the run has an outcome or no thread
        is alive; each round runs one quantum inline.

        A round takes the runnable tids (in tid order), then wakes every
        sleeper whose delay has expired: a thread woken here joins the
        next round, not this one.  With nothing runnable, the clock
        jumps to the earliest wake time; with nothing runnable or
        asleep, the run stalls.  The scheduler picks a thread and a
        quantum, and the quantum runs instruction by instruction.  Per
        instruction, in order: stop once the run has an outcome or the
        thread is no longer runnable; stop at a scheduler barrier (never
        before the quantum's first instruction); enforce the step limit;
        fetch the instruction (raising past the end of its block); fire
        its breakpoint; call the instrumentation; reject a class with no
        handler; charge its cost and count it; execute it, turning a
        guest fault into a crash.

        A directing scheduler (repro.validate) adds three per-round
        hooks: ``filter_runnable`` may veto runnable threads,
        ``barrier_uids`` truncates the quantum at gated uids, and
        ``force_release`` picks one instruction's worth of progress when
        the gate holds every thread and nothing sleeps.  Plain
        schedulers have none of them.
        """
        threads = self.threads
        sleeping = self._sleeping
        scheduler = self.scheduler
        pick = scheduler.pick
        gate = getattr(scheduler, "filter_runnable", None)
        all_stats = self.stats
        breakpoints = self.breakpoints
        instrumentation = self.instrumentation
        clock = self.clock
        costs = self._costs
        code = self.module.code
        global_addr = self._global_addr
        max_steps = self.max_steps
        steps = self._steps
        try:
            while self._outcome is None:
                runnable = [
                    tid for tid, t in threads.items() if t.state == RUNNABLE
                ]
                if not runnable:
                    if sleeping:
                        clock.advance_to(sleeping[0][0])
                        self._wake_sleepers()
                        continue
                    alive = [
                        t for t in threads.values() if t.state not in _ENDED_STATES
                    ]
                    if alive:
                        self._report_stall(alive)
                    return  # a stall, or a clean exit
                woke = bool(sleeping) and sleeping[0][0] <= clock.now
                if woke:
                    self._wake_sleepers()
                barriers = None
                if gate is None:
                    tid, quantum = pick(runnable)
                else:
                    allowed = gate(self, runnable)
                    if allowed:
                        tid, quantum = pick(allowed)
                        # the round-level veto alone would let a long
                        # quantum blow straight through a gate reached
                        # mid-quantum
                        barriers = scheduler.barrier_uids(self)
                    elif woke:
                        # a thread woken this round (perhaps the one the
                        # gate waits for) gets the next round before
                        # anyone is force-released
                        continue
                    elif sleeping:
                        # every runnable thread is held at a gate; let
                        # time pass so the thread the gate waits for can
                        # wake and make progress
                        clock.advance_to(sleeping[0][0])
                        self._wake_sleepers()
                        continue
                    else:
                        # held threads, no sleepers: the directive cannot
                        # be satisfied — run one instruction of the
                        # scheduler's choice instead of stalling forever
                        tid, quantum = scheduler.force_release(self, runnable), 1
                thread = threads[tid]
                frames = thread.frames
                stats = all_stats[tid]
                # ``frame`` is refetched, with its block's code, after
                # control moves; only then can the thread have blocked,
                # slept, exited or crashed, or the run have ended (a hook
                # that does so wraps its instruction to move control)
                frame = None
                for ran in range(quantum):
                    if frame is None:
                        if self._outcome is not None or thread.state != RUNNABLE:
                            break
                        if barriers and ran and self.thread_position(thread) in barriers:
                            break
                    elif barriers and self.thread_position(thread) in barriers:
                        break
                    steps += 1
                    if steps > max_steps:
                        raise StepLimitExceeded(
                            f"exceeded {max_steps} steps at t={clock.now}ns"
                        )
                    if frame is None:
                        frame = frames[-1]
                        ops = code.get(frame.block)
                        if ops is None:
                            ops = code[frame.block] = _compile_block(
                                frame.block, global_addr
                            )
                    try:
                        uid, instr, cls, run = ops[frame.index]
                    except IndexError:
                        raise SimulationError(
                            f"fell off block {frame.block.label()}"
                        ) from None
                    if breakpoints:
                        hit = breakpoints.get(uid)
                        if hit is not None:
                            hit(self, thread, instr)
                            if self._outcome is not None or thread.state != RUNNABLE:
                                run = _then_recheck(run)
                    if instrumentation is not None:
                        extra = instrumentation.before_instruction(self, tid, instr)
                        if extra:
                            clock.advance(extra)
                        if self._outcome is not None or thread.state != RUNNABLE:
                            run = _then_recheck(run)
                    if run is None:
                        raise SimulationError(f"cannot execute {instr.opcode}")
                    clock.now += costs[cls]
                    stats.instructions += 1
                    try:
                        if run(self, thread, frame, stats):
                            frame.index += 1
                            continue
                    except GuestFault as fault:
                        self._crash(thread, instr, fault)
                    frame = None
        finally:
            self._steps = steps

    def _wake_sleepers(self) -> None:
        """Make every sleeper whose delay has expired runnable."""
        now = self.clock.now
        sleeping = self._sleeping
        while sleeping and sleeping[0][0] <= now:
            heappop(sleeping)[2].state = RUNNABLE

    def _report_stall(self, alive: list[SimThread]) -> None:
        """All alive threads blocked and nothing will wake them."""
        for t in alive:
            if t.state in _DEADLOCKABLE_STATES:
                cycle = self._find_sync_cycle(t.tid)
                if cycle:
                    self._deadlock(cycle)
                    return
        # No lock cycle: a hang.  Anchor it at a thread stuck on a sync
        # primitive (a lost condwait, a starved semwait, an unfilled
        # barrier) rather than at e.g. main blocked in join — the sync
        # instruction has a pointer operand the pipeline can diagnose.
        anchor = next((t for t in alive if t.pending_lock_instr), alive[0])
        uid = anchor.pending_lock_instr
        if uid == 0 and anchor.frames:
            frame = anchor.frame
            if frame.index < len(frame.block.instructions):
                uid = frame.block.instructions[frame.index].uid
        self._failure = FailureReport(
            kind="hang",
            failing_uid=uid,
            failing_tid=anchor.tid,
            time=self.clock.now,
            detail="global stall without a lock cycle",
        )
        self._outcome = "hang"

    def _find_sync_cycle(self, start_tid: int):
        """Cycle search over the merged mutex + rwlock wait-for graph."""
        from repro.sim.sync import find_wait_cycle

        pending = self.locks.table.pending_edges()
        pending.update(self.locks.rw.pending_edges())
        return find_wait_cycle(pending, start_tid)

    # -- thread management ---------------------------------------------------

    def _spawn_thread(self, fn: Function, args: list[Any]) -> SimThread:
        tid = self._next_tid
        self._next_tid += 1
        thread = SimThread(tid, root=fn.name)
        self.threads[tid] = thread
        self.stats[tid] = ThreadStats(tid)
        self._push_frame(thread, fn, args, call_site=None)
        if self.driver is not None:
            thread.trace = self.driver.start_thread(
                tid, fn.entry.instructions[0].uid, self.clock.now
            )
        return thread

    def _push_frame(
        self, thread: SimThread, fn: Function, args: list[Any], call_site: Call | None
    ) -> None:
        params = fn.params
        if len(args) != len(params):
            raise SimulationError(
                f"calling {fn.name} with {len(args)} args, expected {len(params)}"
            )
        frame = Frame(fn, fn.entry, 0, dict(zip(params, args)), {}, call_site)
        allocas = fn.allocas()
        if allocas:
            memory, values, slots = self.memory, frame.values, frame.allocas
            for alloca in allocas:
                ty = alloca.allocated_type
                obj = memory.allocate(ty.size(), "stack", alloca.uid, ty, label=alloca.name)
                slots[alloca] = obj
                values[alloca] = obj.base
        thread.frames.append(frame)

    def _pop_frame(self, thread: SimThread) -> Frame:
        frame = thread.frames.pop()
        for obj in frame.allocas.values():
            self.memory.release_stack(obj)
        return frame

    # -- instruction handlers ----------------------------------------------
    #
    # One per instruction class without a specialised compiler (see
    # ``_COMPILERS`` below); the class's compiled code calls it.  Each
    # returns whether the thread falls through to the next instruction
    # of its block.

    def _do_malloc(self, thread, frame, instr: Malloc, stats) -> bool:
        count = 1
        if instr.count is not None:
            count = int(self._value(frame, instr.count))
            if count < 0:
                raise GuestFault("oob", 0, f"malloc with negative count {count}")
        base_ty = instr.allocated_type
        size = base_ty.size() * count
        ty = ArrayType(base_ty, count) if count != 1 else base_ty
        obj = self.memory.allocate(size, "heap", instr.uid, ty, label=instr.name)
        frame.values[instr] = obj.base
        return True

    def _do_free(self, thread, frame, instr: Free, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        if addr == 0:
            raise GuestFault("null", 0, "free(NULL)")
        self.memory.free(addr)
        stats.memory_accesses += 1
        self._record_event(instr, thread, "write", addr)
        return True

    def _do_index_addr(self, thread, frame, instr: IndexAddr, stats) -> bool:
        base = self._pointer(frame, instr.pointer)
        idx = int(self._value(frame, instr.index))
        frame.values[instr] = base + idx * instr.element_type.size()
        return True

    def _do_cast(self, thread, frame, instr: Cast, stats) -> bool:
        frame.values[instr] = self._value(frame, instr.value)
        return True

    def _do_sync_init(self, thread, frame, instr, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.write_word(addr, 0)  # validates the address
        return True

    def _do_sem_init(self, thread, frame, instr: SemInit, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        count = int(self._value(frame, instr.count))
        if count < 0:
            raise GuestFault("oob", 0, f"seminit with negative count {count}")
        self.memory.write_word(addr, count)  # validates the address
        self.locks.sems.init(addr, count)
        return True

    def _do_barrier_init(self, thread, frame, instr: BarrierInit, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        parties = int(self._value(frame, instr.parties))
        if parties < 1:
            raise GuestFault("oob", 0, f"barrierinit with parties {parties} < 1")
        self.memory.write_word(addr, parties)  # validates the address
        self.locks.barriers.init(addr, parties)
        return True

    def _do_assert(self, thread, frame, instr: Assert, stats) -> bool:
        if not self._value(frame, instr.cond):
            raise GuestFault("assert", 0, instr.message)
        return True

    # -- control transfers ----------------------------------------------------

    def _do_call(self, thread: SimThread, frame: Frame, instr: Call, stats) -> bool:
        # indirect calls; most direct ones run _compile_call's code
        callee = self._resolve_callee(frame, instr.callee)
        args = [self._value(frame, a) for a in instr.args]
        trace = thread.trace
        if trace is not None:
            entry_uid = callee.entry.instructions[0].uid
            if instr.is_direct:
                extra = trace.call(entry_uid, self.clock.now)
            else:
                extra = trace.indirect_call(entry_uid, self.clock.now)
            if extra:
                self.clock.advance(extra)
        self._push_frame(thread, callee, args, call_site=instr)
        return False

    def _return(self, thread: SimThread, value: Any) -> bool:
        """Pop ``thread``'s frame, handing ``value`` to its caller (or
        ending the thread when it returns from its root)."""
        self._pop_frame(thread)
        if not thread.frames:
            thread.state = DONE
            thread.return_value = value
            trace = thread.trace
            if trace is not None:
                trace.ret(None, self.clock.now)
                self.driver.end_thread(trace, self.clock.now)
            self._wake_joiners(thread.tid)
            return False
        caller = thread.frame
        call_site = caller.block.instructions[caller.index]
        if value is not None:
            caller.values[call_site] = value
        caller.index += 1
        trace = thread.trace
        if trace is not None:
            resume_uid = caller.block.instructions[caller.index].uid
            extra = trace.ret(resume_uid, self.clock.now)
            if extra:
                self.clock.advance(extra)
        return False

    def _resolve_callee(self, frame: Frame, callee_value: Value) -> Function:
        if isinstance(callee_value, FunctionRef):
            return callee_value.function
        runtime = self._value(frame, callee_value)
        if isinstance(runtime, FunctionRef):
            return runtime.function
        raise GuestFault(
            "unmapped", runtime if isinstance(runtime, int) else 0,
            "indirect call through a non-function value",
        )

    def _do_spawn(self, thread: SimThread, frame: Frame, instr: Spawn, stats) -> bool:
        callee = self._resolve_callee(frame, instr.callee)
        args = [self._value(frame, a) for a in instr.args]
        frame.values[instr] = self._spawn_thread(callee, args).tid
        self._record_event(instr, thread, "other", None)
        return True

    def _do_join(self, thread: SimThread, frame: Frame, instr: Join, stats) -> bool:
        target_tid = int(self._value(frame, instr.handle))
        target = self.threads.get(target_tid)
        if target is None:
            raise GuestFault("unmapped", target_tid, "join on unknown thread")
        if target.state in (DONE, CRASHED):
            return True
        thread.join_target = target_tid
        self._block(thread, BLOCKED_JOIN, instr)
        return False

    def _wake_joiners(self, finished_tid: int) -> None:
        for t in self.threads.values():
            if t.state == BLOCKED_JOIN and t.join_target == finished_tid:
                self._wake(t)

    # -- blocking and waking ------------------------------------------------------

    def _block(
        self,
        thread: SimThread,
        state: str,
        instr: Instruction,
        addr: int | None = None,
    ) -> None:
        """Switch ``thread`` out, blocked on ``instr`` (on the sync object
        at ``addr``, if any): the trace gets a position marker and an
        exact timestamp, like PT's mode packets at a context switch."""
        thread.state = state
        if addr is not None:
            thread.pending_lock = addr
            thread.pending_lock_instr = instr.uid
        if thread.trace is not None:
            thread.trace.block(instr.uid, self.clock.now)

    def _wake(self, thread: SimThread) -> None:
        """Wake a blocked thread: the op it blocked on completed on its
        behalf, so it resumes *past* that instruction."""
        thread.state = RUNNABLE
        thread.pending_lock = None
        thread.pending_lock_instr = 0
        thread.join_target = None
        frame = thread.frame
        frame.index += 1
        if thread.trace is not None:
            resume = frame.block.instructions[frame.index].uid
            thread.trace.wake(resume, self.clock.now)

    # -- locks -------------------------------------------------------------------

    def _do_lock(self, thread: SimThread, frame: Frame, instr: Lock, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "lock", addr)
        table = self.locks.table
        if table.try_acquire(addr, thread.tid):
            return True
        holder = table.holder(addr)
        if holder == thread.tid:
            # self-deadlock on a non-recursive mutex
            entry = DeadlockEntry(
                thread.tid, addr, tuple(table.held_by(thread.tid)), instr.uid,
                self.clock.now,
            )
            self._failure = DeadlockReport(
                kind="deadlock",
                failing_uid=instr.uid,
                failing_tid=thread.tid,
                time=self.clock.now,
                detail="self-deadlock (non-recursive mutex)",
                cycle=(entry,),
            )
            self._outcome = "deadlock"
            return False
        table.add_waiter(addr, thread.tid, instr.uid, self.clock.now)
        self._block(thread, BLOCKED_LOCK, instr, addr)
        cycle = table.find_deadlock_cycle(thread.tid)
        if cycle:
            self._deadlock(cycle)
        return False

    def _do_unlock(self, thread: SimThread, frame: Frame, instr: Unlock, stats) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "unlock", addr)
        next_tid = self.locks.table.release(addr, thread.tid)
        if next_tid is not None:
            self._wake(self.threads[next_tid])
        return True

    # -- richer sync primitives (condvar / rwlock / semaphore / barrier) ----

    def _do_cond_wait(
        self, thread: SimThread, frame: Frame, instr: CondWait, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "read", addr)
        self.locks.conds.wait(addr, thread.tid)
        self._block(thread, BLOCKED_COND, instr, addr)
        return False

    def _do_cond_notify(
        self, thread: SimThread, frame: Frame, instr: CondNotify, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "write", addr)
        tid = self.locks.conds.notify(addr)
        if tid is not None:
            self._wake(self.threads[tid])
        # else: the signal found no waiter and is lost — the semantics
        # behind every lost-wakeup bug in the corpus
        return True

    def _do_rw_lock(
        self, thread: SimThread, frame: Frame, instr: Instruction, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "lock", addr)
        rw = self.locks.rw
        mode = "wr" if isinstance(instr, RwWrLock) else "rd"
        acquired = (
            rw.try_wrlock(addr, thread.tid)
            if mode == "wr"
            else rw.try_rdlock(addr, thread.tid)
        )
        if acquired:
            return True
        rw.add_waiter(addr, thread.tid, mode, instr.uid, self.clock.now)
        self._block(thread, BLOCKED_RW, instr, addr)
        cycle = self._find_sync_cycle(thread.tid)
        if cycle:
            self._deadlock(cycle)
        return False

    def _do_rw_unlock(
        self, thread: SimThread, frame: Frame, instr: RwUnlock, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "unlock", addr)
        for tid in self.locks.rw.release(addr, thread.tid):
            self._wake(self.threads[tid])
        return True

    def _do_sem_wait(
        self, thread: SimThread, frame: Frame, instr: SemWait, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "read", addr)
        sems = self.locks.sems
        if sems.try_wait(addr):
            return True
        sems.add_waiter(addr, thread.tid)
        self._block(thread, BLOCKED_SEMA, instr, addr)
        return False

    def _do_sem_post(
        self, thread: SimThread, frame: Frame, instr: SemPost, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "write", addr)
        tid = self.locks.sems.post(addr)
        if tid is not None:
            self._wake(self.threads[tid])
        return True

    def _do_barrier_wait(
        self, thread: SimThread, frame: Frame, instr: BarrierWait, stats
    ) -> bool:
        addr = self._pointer(frame, instr.pointer)
        self.memory.check_access(addr)
        stats.lock_ops += 1
        self._record_event(instr, thread, "read", addr)
        woken = self.locks.barriers.arrive(addr, thread.tid)
        if woken is None:
            self._block(thread, BLOCKED_BARRIER, instr, addr)
            return False
        for tid in woken:
            self._wake(self.threads[tid])
        return True  # the tripping arrival continues immediately

    def _deadlock(self, cycle: list) -> None:
        table = self.locks.table
        rw = self.locks.rw
        entries = tuple(
            DeadlockEntry(
                e.waiter,
                e.lock_address,
                tuple(table.held_by(e.waiter) + rw.held_by(e.waiter)),
                e.instr_uid,
                e.since,
            )
            for e in cycle
        )
        last = cycle[-1]
        self._failure = DeadlockReport(
            kind="deadlock",
            failing_uid=last.instr_uid,
            failing_tid=last.waiter,
            time=self.clock.now,
            detail=f"{len(entries)}-thread lock cycle",
            cycle=entries,
        )
        self._outcome = "deadlock"

    # -- faults --------------------------------------------------------------------

    def _crash(self, thread: SimThread, instr: Instruction, fault: GuestFault) -> None:
        operand_value: int | None = None
        pointer = instr.pointer_operand()
        if pointer is not None:
            try:
                runtime = self._value(thread.frame, pointer)
                if isinstance(runtime, int):
                    operand_value = runtime
            except Exception:
                operand_value = None
        kind = "assert" if fault.kind == "assert" else "crash"
        self._failure = CrashReport(
            kind=kind,
            failing_uid=instr.uid,
            failing_tid=thread.tid,
            time=self.clock.now,
            detail=str(fault),
            fault_kind=fault.kind,
            fault_address=fault.address,
            operand_value=operand_value,
        )
        thread.state = CRASHED
        self._outcome = kind

    # -- value evaluation --------------------------------------------------------

    def _value(self, frame: Frame, v: Value) -> Any:
        # most operands are the results of earlier instructions: test first
        if isinstance(v, (Instruction, Argument)):
            try:
                return frame.values[v]
            except KeyError:
                raise _undefined(v, frame) from None
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, NullPointer):
            return 0
        if isinstance(v, GlobalVariable):
            return self._global_addr[v.name]
        if isinstance(v, FunctionRef):
            return v
        raise SimulationError(f"cannot evaluate {v!r}")

    def _pointer(self, frame: Frame, v: Value) -> int:
        return _address(self._value(frame, v))

    # -- events ---------------------------------------------------------------------

    def _record_event(
        self, instr: Instruction, thread: SimThread, kind: str, address: int | None
    ) -> None:
        if instr.uid in self.event_log.watched:
            self.event_log.record(
                TargetEvent(instr.uid, thread.tid, self.clock.now, kind, address)
            )


# -- pre-decoded code ----------------------------------------------------------
#
# The first time a block runs, each of its instructions is compiled into
# ``run(machine, thread, frame, stats) -> bool`` (whether the thread
# falls through to the next instruction) and the block's code is kept in
# ``Module.code`` as ``(uid, instr, class, run)`` tuples.  The hot
# classes get a closure specialised on their operands' kinds, with
# accessor properties and branch-target uids resolved here once; every
# other class calls its ``Machine._do_*`` handler.  A class with no
# compiler gets ``run = None`` and raises only when it executes.  Code
# refers to IR objects and plain values, never to a machine, so one
# module's code serves every machine that runs it; costs stay per
# machine (``Machine._costs``), so cost-model overrides still apply.


def _undefined(v: Value, frame: Frame) -> SimulationError:
    return SimulationError(
        f"read of undefined value {v.short()} in {frame.function.name}"
    )


def _address(value: Any) -> int:
    if not isinstance(value, int):
        raise GuestFault("unmapped", 0, f"non-address pointer value {value!r}")
    return value


def _operand(v: Value, global_addr: dict[str, int]) -> tuple[Any, bool]:
    """``(v, True)`` for an operand read from the frame (an instruction
    result or an argument), else ``(its value, False)``."""
    if isinstance(v, (Instruction, Argument)):
        return v, True
    if isinstance(v, Constant):
        return v.value, False
    if isinstance(v, NullPointer):
        return 0, False
    if isinstance(v, GlobalVariable):
        return global_addr[v.name], False
    if isinstance(v, FunctionRef):
        return v, False
    raise SimulationError(f"cannot evaluate {v!r}")


def _compile_block(block: BasicBlock, global_addr: dict[str, int]) -> tuple:
    ops = []
    for instr in block.instructions:
        cls = type(instr)
        compile_op = _COMPILERS.get(cls)
        run = None if compile_op is None else compile_op(instr, global_addr)
        ops.append((instr.uid, instr, cls, run))
    return tuple(ops)


def _then_recheck(run: Callable[..., bool] | None) -> Callable[..., bool] | None:
    """``run`` as the last instruction of its quantum: it executes and
    falls through as usual, but reports that control moved, so the loop
    rechecks the thread (and the run's outcome) before fetching again.
    Used when a breakpoint or the instrumentation ended the run or
    switched the thread out just before the instruction."""
    if run is None:
        return None

    def last(m, thread, frame, stats):
        if run(m, thread, frame, stats):
            frame.index += 1
        return False

    return last


def _run_nothing(m, thread, frame, stats) -> bool:
    return True


def _compile_alloca(instr: Alloca, global_addr) -> Callable[..., bool]:
    return _run_nothing  # the slot is materialized at frame push


def _compile_load(instr: Load, global_addr) -> Callable[..., bool]:
    pointer, pointer_local = _operand(instr.pointer, global_addr)
    uid = instr.uid

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            addr = values[pointer] if pointer_local else pointer
        except KeyError:
            raise _undefined(pointer, frame) from None
        if addr.__class__ is not int:
            addr = _address(addr)
        values[instr] = m.memory.read_word(addr)
        stats.memory_accesses += 1
        if uid in m.event_log.watched:
            m._record_event(instr, thread, "read", addr)
        return True

    return run


def _compile_store(instr: Store, global_addr) -> Callable[..., bool]:
    value, value_local = _operand(instr.value, global_addr)
    pointer, pointer_local = _operand(instr.pointer, global_addr)
    uid = instr.uid

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            addr = values[pointer] if pointer_local else pointer
        except KeyError:
            raise _undefined(pointer, frame) from None
        if addr.__class__ is not int:
            addr = _address(addr)
        try:
            word = values[value] if value_local else value
        except KeyError:
            raise _undefined(value, frame) from None
        m.memory.write_word(addr, word)
        stats.memory_accesses += 1
        if uid in m.event_log.watched:
            m._record_event(instr, thread, "write", addr)
        return True

    return run


def _compile_field_addr(instr: FieldAddr, global_addr) -> Callable[..., bool]:
    # Address arithmetic never faults (like LLVM GEP); the dereference
    # is the failing instruction, which is what the diagnosis pipeline
    # must anchor on.
    pointer, pointer_local = _operand(instr.pointer, global_addr)
    offset = instr.offset

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            addr = values[pointer] if pointer_local else pointer
        except KeyError:
            raise _undefined(pointer, frame) from None
        if addr.__class__ is not int:
            addr = _address(addr)
        values[instr] = addr + offset
        return True

    return run


def _compile_binop(instr: BinOp, global_addr) -> Callable[..., bool]:
    lhs, lhs_local = _operand(instr.lhs, global_addr)
    rhs, rhs_local = _operand(instr.rhs, global_addr)
    op = _BINOPS.get(instr.op)
    if op is None:
        raise SimulationError(f"unknown binop {instr.op}")

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            a = values[lhs] if lhs_local else lhs
            b = values[rhs] if rhs_local else rhs
        except KeyError as missing:
            raise _undefined(missing.args[0], frame) from None
        values[instr] = op(a, b)
        return True

    return run


def _compile_cmp(instr: Cmp, global_addr) -> Callable[..., bool]:
    lhs, lhs_local = _operand(instr.lhs, global_addr)
    rhs, rhs_local = _operand(instr.rhs, global_addr)
    test = _COMPARISONS[instr.op]

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            a = values[lhs] if lhs_local else lhs
            b = values[rhs] if rhs_local else rhs
        except KeyError as missing:
            raise _undefined(missing.args[0], frame) from None
        values[instr] = 1 if test(a, b) else 0
        return True

    return run


def _compile_br(instr: Br, global_addr) -> Callable[..., bool]:
    target = instr.target
    target_uid = target.instructions[0].uid

    def run(m, thread, frame, stats):
        frame.block = target
        frame.index = 0
        trace = thread.trace
        if trace is not None:
            clock = m.clock
            extra = trace.br(target_uid, clock.now)
            if extra:
                clock.advance(extra)
        stats.branches += 1
        return False

    return run


def _compile_cond_br(instr: CondBr, global_addr) -> Callable[..., bool]:
    cond, cond_local = _operand(instr.cond, global_addr)
    then_block, else_block = instr.then_block, instr.else_block
    then_uid = then_block.instructions[0].uid
    else_uid = else_block.instructions[0].uid

    def run(m, thread, frame, stats):
        try:
            taken = frame.values[cond] if cond_local else cond
        except KeyError:
            raise _undefined(cond, frame) from None
        if taken:
            taken, frame.block, target_uid = True, then_block, then_uid
        else:
            taken, frame.block, target_uid = False, else_block, else_uid
        frame.index = 0
        trace = thread.trace
        if trace is not None:
            clock = m.clock
            extra = trace.cond_branch(taken, target_uid, clock.now)
            if extra:
                clock.advance(extra)
        stats.branches += 1
        return False

    return run


def _compile_delay(instr: Delay, global_addr) -> Callable[..., bool]:
    duration_of, duration_local = _operand(instr.duration, global_addr)
    uid = instr.uid
    # where the thread resumes: the next instruction of the block
    following = instr.parent.instructions[instr.block_index + 1 :]
    resume_uid = following[0].uid if following else 0

    def run(m, thread, frame, stats):
        try:
            duration = frame.values[duration_of] if duration_local else duration_of
        except KeyError:
            raise _undefined(duration_of, frame) from None
        duration = int(duration)
        if duration < 0:
            raise GuestFault("oob", 0, f"negative delay {duration}")
        start = m.clock.now
        extra = 0
        trace = thread.trace
        if trace is not None:
            extra = trace.work(uid, resume_uid, start, duration, m.driver.live_threads)
        thread.wake_time = wake = start + duration + extra
        thread.state = SLEEPING
        heappush(m._sleeping, (wake, thread.tid, thread))
        frame.index += 1
        return False

    return run


def _compile_call(instr: Call, global_addr) -> Callable[..., bool]:
    # a callee with no body raises when the call executes, not here
    if not instr.is_direct or not instr.callee.function.blocks:
        return _calls(Machine._do_call)(instr, global_addr)
    callee = instr.callee.function
    entry_uid = callee.entry.instructions[0].uid
    args = tuple(_operand(a, global_addr) for a in instr.args)

    def run(m, thread, frame, stats):
        values = frame.values
        try:
            actuals = [values[a] if local else a for a, local in args]
        except KeyError as missing:
            raise _undefined(missing.args[0], frame) from None
        trace = thread.trace
        if trace is not None:
            clock = m.clock
            extra = trace.call(entry_uid, clock.now)
            if extra:
                clock.advance(extra)
        m._push_frame(thread, callee, actuals, instr)
        return False

    return run


def _compile_ret(instr: Ret, global_addr) -> Callable[..., bool]:
    if instr.value is None:
        return lambda m, thread, frame, stats: m._return(thread, None)
    value, value_local = _operand(instr.value, global_addr)

    def run(m, thread, frame, stats):
        try:
            result = frame.values[value] if value_local else value
        except KeyError:
            raise _undefined(value, frame) from None
        return m._return(thread, result)

    return run


def _calls(handler: Callable[..., bool]) -> Callable[..., Callable[..., bool]]:
    """The compiler of a class executed by its ``Machine._do_*`` handler."""

    def compile_op(instr, global_addr) -> Callable[..., bool]:
        def run(m, thread, frame, stats):
            return handler(m, thread, frame, instr, stats)

        return run

    return compile_op


def _div(a, b):
    if b == 0:
        raise GuestFault("arith", 0, "division by zero")
    return _trunc_div(a, b) if isinstance(a, int) else a / b


def _mod(a, b):
    if b == 0:
        raise GuestFault("arith", 0, "division by zero")
    return a - b * _trunc_div(a, b) if isinstance(a, int) else a % b


def _trunc_div(a: int, b: int | float) -> int:
    """``a / b`` rounded toward zero, as C divides integers: exact for
    ints, where a float quotient loses the low bits of big operands."""
    if isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q
    return int(a / b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _div,
    "mod": _mod,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": operator.lshift,
    "shr": operator.rshift,
}

# only the requested comparison runs: ordering a function reference
# against an int raises, but testing it for (in)equality must not
_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


# instruction class -> compile(instr, global_addr) -> run; the classes
# the machine can execute (and prices, in Machine._costs)
_COMPILERS: dict[type, Callable[..., Callable[..., bool]]] = {
    Alloca: _compile_alloca,
    Malloc: _calls(Machine._do_malloc),
    Free: _calls(Machine._do_free),
    Load: _compile_load,
    Store: _compile_store,
    FieldAddr: _compile_field_addr,
    IndexAddr: _calls(Machine._do_index_addr),
    BinOp: _compile_binop,
    Cmp: _compile_cmp,
    Cast: _calls(Machine._do_cast),
    Br: _compile_br,
    CondBr: _compile_cond_br,
    Ret: _compile_ret,
    Call: _compile_call,
    LockInit: _calls(Machine._do_sync_init),
    CondInit: _calls(Machine._do_sync_init),
    RwInit: _calls(Machine._do_sync_init),
    Lock: _calls(Machine._do_lock),
    Unlock: _calls(Machine._do_unlock),
    CondWait: _calls(Machine._do_cond_wait),
    CondNotify: _calls(Machine._do_cond_notify),
    RwRdLock: _calls(Machine._do_rw_lock),
    RwWrLock: _calls(Machine._do_rw_lock),
    RwUnlock: _calls(Machine._do_rw_unlock),
    SemInit: _calls(Machine._do_sem_init),
    SemWait: _calls(Machine._do_sem_wait),
    SemPost: _calls(Machine._do_sem_post),
    BarrierInit: _calls(Machine._do_barrier_init),
    BarrierWait: _calls(Machine._do_barrier_wait),
    Spawn: _calls(Machine._do_spawn),
    Join: _calls(Machine._do_join),
    Delay: _compile_delay,
    Assert: _calls(Machine._do_assert),
}


# cost-model values -> its price table (see _price_table)
_PRICE_TABLES: dict[tuple, dict[type, int]] = {}


def _price_table(model: CostModel) -> dict[type, int]:
    """Instruction class -> cost in ns of one execution under ``model``,
    checked non-negative because the interpreter adds costs to the clock
    unchecked.  Machines whose models hold equal values share one
    table, so a run does not price every class again."""
    key = tuple(
        tuple(v.items()) if isinstance(v, dict) else v for v in vars(model).values()
    )
    table = _PRICE_TABLES.get(key)
    if table is None:
        table = {cls: model.cost(cls.opcode) for cls in _COMPILERS}
        negative = sorted(c.opcode for c, ns in table.items() if ns < 0)
        if negative:
            raise ValueError(f"negative instruction cost for {', '.join(negative)}")
        if len(_PRICE_TABLES) >= 64:
            _PRICE_TABLES.clear()  # a bound for callers that vary the model
        _PRICE_TABLES[key] = table
    return table


class LockTableShim:
    """Late-bound sync tables so sim modules stay import-cycle free.

    ``table`` (mutexes) keeps its historical name; the richer primitives
    added with the corpus expansion hang off the same shim.
    """

    def __init__(self):
        from repro.sim.sync import (
            BarrierTable,
            CondTable,
            LockTable,
            RwLockTable,
            SemTable,
        )

        self.table = LockTable()
        self.conds = CondTable()
        self.rw = RwLockTable()
        self.sems = SemTable()
        self.barriers = BarrierTable()
