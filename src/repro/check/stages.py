"""The checkable stage families: one per pipeline layer.

Each stage is a pure function of a :class:`~repro.check.cases.CheckCase`
— it regenerates its inputs from the case seed, runs the production
code, and raises :class:`~repro.check.invariants.InvariantViolation`
(or any exception) on a broken invariant.  ``STAGES`` is the registry
the runner, the shrinker, and the CLI share; ``defaults`` are the
generation knobs (all integers, so the shrinker can minimize them) and
``minimums`` the per-knob shrink floors.

Stage families:

======== ==================================================================
trace    ``process_snapshot`` / ``attach_anchor`` on synthetic decoded
         traces: thread registration, ``by_uid`` ordering, executed-set
         coverage, partial-order sanity
stats    ``score_patterns`` on randomized evidence: F1 recomputation,
         true-minimum ranks, failing-first example selection, the 10x cap
pointsto Andersen optimized ≡ naive ≡ (⊆ Steensgaard) on random
         constraint systems and on generated program modules
sim      the machine's sync-primitive tables (mutex, condvar, rwlock,
         semaphore, barrier) driven with random op sequences against
         independent reference models: FIFO wait queues, non-negative
         semaphore counts, monotone barrier generations, writer
         exclusion, FIFO grant with reader batching, wait-for cycle
         detection
jobs     ``DiagnosisJobQueue``: dedup, backpressure, result caching, and
         bounded bookkeeping after completion
collect  step-8 transport differential: serial ≡ thread-parallel ≡
         batched-through-the-wire-codec evidence, adaptive stopping
         invariant across transports, digest equality of the diagnoses
e2e      a full client/server diagnosis of a generated bug under the
         checkpoint observer, plus cache-on ≡ cache-off ≡ cache-warm and
         fleet-wire ≡ in-process digest equality, against ground truth
validate the reproduction loop: the ground-truth order of a generated
         bug must validate (forced order fails, inverse passes), and a
         diagnosis of the true pattern must never be refuted by its own
         directed replay
monitor  the always-on differential: a diagnosis the anomaly detector
         triggered from monitor-loop telemetry must digest identically
         to the on-demand diagnosis of the same failure, with a
         queryable, round-trip-stable evidence graph
======== ==================================================================

The ``sim`` stage and every bug-generating stage (``pointsto``,
``collect``, ``e2e``, ``validate``) take a ``primitives`` bitmask knob
(CLI ``--primitives condvar,rwlock,...``; see
:func:`repro.check.generator.primitives_mask`) that restricts which
primitive families are fuzzed and which template classes
:func:`~repro.check.generator.gen_bug` may draw.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.check import generator, invariants
from repro.check.cases import CheckCase
from repro.check.invariants import InvariantViolation
from repro.check.observer import InvariantObserver


class CaseSkipped(Exception):
    """The case is vacuous for this seed (e.g. no failing run found) —
    counted separately, never a failure."""


def _rng(case: CheckCase) -> random.Random:
    return random.Random(case.seed)


# -- trace: steps 2-3 --------------------------------------------------------


def run_trace(case: CheckCase) -> None:
    from repro.core.trace_processing import attach_anchor, process_snapshot

    rng = _rng(case)
    p = case.params
    traces = generator.gen_thread_traces(rng, p)
    with_anchor = rng.randrange(100) < 80
    anchor_uid = anchor_tid = anchor_time = None
    if with_anchor:
        anchor_uid, anchor_tid, anchor_time = generator.gen_anchor(
            rng, traces, p
        )
    pt = process_snapshot(
        "check", traces, failing=True,
        anchor_uid=anchor_uid, anchor_tid=anchor_tid, anchor_time=anchor_time,
    )
    invariants.check_processed_trace(pt, traces, rng=rng)
    if with_anchor and pt.anchor is not None:
        if pt.anchor.tid not in pt.threads:
            raise InvariantViolation(
                "anchor-thread-registered",
                f"anchor tid={pt.anchor.tid} missing from threads",
            )
    # attach a few more anchors the way operand recovery does (the
    # recovered chain loads), alternating decoded and synthesized
    for _ in range(p.get("attaches", 2)):
        uid, tid, t = generator.gen_anchor(rng, traces, p)
        if tid is None:
            tid = min(pt.threads) if pt.threads else 0
        prefer = rng.randrange(100) < 60
        decoded_before = [d for d in pt.instances(uid) if d.tid == tid]
        anchor = attach_anchor(pt, uid, tid, t, prefer_decoded=prefer)
        if prefer and decoded_before:
            # the documented pick: the LAST decoded instance in
            # (t_lo, seq) order — not merely any member of the bucket
            want = max(decoded_before, key=lambda d: (d.t_lo, d.seq))
            if anchor is not want:
                raise InvariantViolation(
                    "anchor-is-last-instance",
                    f"attach_anchor(uid={uid}, tid={tid}) returned "
                    f"(t_lo={anchor.t_lo}, seq={anchor.seq}), latest "
                    f"decoded is (t_lo={want.t_lo}, seq={want.seq})",
                )
        invariants.check_processed_trace(pt, traces, rng=rng)


# -- stats: step 7 -----------------------------------------------------------


def run_stats(case: CheckCase) -> None:
    from repro.core.statistics import (
        SUCCESS_TRACE_CAP_FACTOR,
        cap_successful,
        score_patterns,
    )

    rng = _rng(case)
    observations = generator.gen_observations(rng, case.params)
    capped = cap_successful(observations)
    failing = [o for o in capped if o.failing]
    ok = [o for o in capped if not o.failing]
    if len(ok) > SUCCESS_TRACE_CAP_FACTOR * max(1, len(failing)):
        raise InvariantViolation(
            "success-cap",
            f"{len(ok)} successful observations survive the "
            f"{SUCCESS_TRACE_CAP_FACTOR}x cap with {len(failing)} failing",
        )
    scored = score_patterns(capped)
    invariants.check_scores(capped, scored)


# -- pointsto: step 4 --------------------------------------------------------


def run_pointsto(case: CheckCase) -> None:
    from repro.core.andersen import solve
    from repro.core.constraints import generate_constraints

    rng = _rng(case)
    p = case.params
    module = executed = None
    if rng.randrange(100) < p.get("module_pct", 30):
        kinds = generator.kinds_for_primitives(p.get("primitives", 0))
        module, _truth, _workload, _kind = generator.gen_bug(
            rng, p, kinds=kinds
        )
        uids = [i.uid for fn in module.functions.values()
                for i in fn.instructions()]
        if rng.randrange(100) < 50:
            executed = set(rng.sample(uids, max(1, len(uids) // 2)))
        else:
            executed = None  # whole-program
        system = generate_constraints(module, executed)
    else:
        system = generator.gen_constraint_system(rng, p)
    result = solve(system)
    invariants.check_andersen_equivalence(system, result)
    invariants.check_steensgaard_superset(system, result)
    if module is not None and executed and p.get("seeded_diff", 1):
        # incremental-seeding differential: solving a sub-scope first
        # and replaying its fixpoint into the full solve must land on
        # the identical fixpoint as the cold solve above
        sub = set(rng.sample(sorted(executed), max(1, len(executed) // 2)))
        sub_result = solve(generate_constraints(module, sub))
        seeded = solve(system, seed=sub_result)
        cold_pts, seeded_pts = result.as_sets(), seeded.as_sets()
        for node in set(cold_pts) | set(seeded_pts):
            if cold_pts.get(node, frozenset()) != seeded_pts.get(
                node, frozenset()
            ):
                raise InvariantViolation(
                    "seeded-solve-equal",
                    f"seeding from a {len(sub)}-uid sub-scope changed the "
                    f"fixpoint at node {node!r}: cold="
                    f"{sorted(o.name for o in cold_pts.get(node, ()))} "
                    f"seeded="
                    f"{sorted(o.name for o in seeded_pts.get(node, ()))}",
                )


# -- sim: the sync-primitive tables ------------------------------------------


def run_sim(case: CheckCase) -> None:
    """Differential fuzz of :mod:`repro.sim.sync` against independent
    reference models, restating the invariants the extension corpus
    leans on:

    * every wait queue is FIFO — a condvar notify wakes the longest
      waiter, a mutex release hands off in arrival order,
    * a semaphore count is never negative and is zero whenever a
      thread blocks on it,
    * a barrier's generation is monotone, advancing exactly once per
      full batch of arrivals (and never releasing a partial batch),
    * a reader-writer lock never holds a writer alongside readers and
      grants strictly FIFO with reader batching,
    * the wait-for graph reports a cycle exactly when the model's
      owner/waiter relation contains one.
    """
    rng = _rng(case)
    p = case.params
    ops = max(1, p.get("ops", 60))
    threads = max(2, p.get("threads", 4))
    addrs = [0x1000 + 8 * i for i in range(max(1, p.get("addrs", 3)))]
    fuzzers = {
        "condvar": _fuzz_cond,
        "rwlock": _fuzz_rwlock,
        "sema": _fuzz_sema,
        "barrier": _fuzz_barrier,
        "mutex": _fuzz_mutex,
    }
    for name in generator.primitive_names(p.get("primitives", 0)):
        fuzzers[name](rng, ops, threads, addrs, p)


def _fuzz_cond(rng, ops, threads, addrs, params) -> None:
    from repro.sim.sync import CondTable

    table = CondTable()
    model = {a: [] for a in addrs}
    blocked: set[int] = set()
    tids = list(range(1, threads + 1))
    for _ in range(ops):
        addr = rng.choice(addrs)
        runnable = [t for t in tids if t not in blocked]
        if runnable and rng.randrange(100) < 55:
            tid = rng.choice(runnable)
            table.wait(addr, tid)
            model[addr].append(tid)
            blocked.add(tid)
        else:
            woken = table.notify(addr)
            want = model[addr].pop(0) if model[addr] else None
            if woken != want:
                raise InvariantViolation(
                    "condvar-fifo",
                    f"notify({addr:#x}) woke {woken}, FIFO head was {want}",
                )
            if woken is not None:
                blocked.discard(woken)
        for a in addrs:
            if table.waiters(a) != model[a]:
                raise InvariantViolation(
                    "condvar-queue",
                    f"waiters({a:#x})={table.waiters(a)}, model={model[a]}",
                )


def _fuzz_sema(rng, ops, threads, addrs, params) -> None:
    from repro.sim.sync import SemTable

    table = SemTable()
    counts = {a: rng.randrange(3) for a in addrs}
    queues = {a: [] for a in addrs}
    for a in addrs:
        table.init(a, counts[a])
    blocked: set[int] = set()
    tids = list(range(1, threads + 1))
    for _ in range(ops):
        addr = rng.choice(addrs)
        runnable = [t for t in tids if t not in blocked]
        if runnable and rng.randrange(100) < 55:
            tid = rng.choice(runnable)
            got = table.try_wait(addr)
            if got != (counts[addr] > 0):
                raise InvariantViolation(
                    "sema-wait",
                    f"try_wait({addr:#x}) -> {got} at count {counts[addr]}",
                )
            if got:
                counts[addr] -= 1
            else:
                table.add_waiter(addr, tid)
                queues[addr].append(tid)
                blocked.add(tid)
        else:
            woken = table.post(addr)
            want = queues[addr].pop(0) if queues[addr] else None
            if woken != want:
                raise InvariantViolation(
                    "sema-fifo",
                    f"post({addr:#x}) woke {woken}, FIFO head was {want}",
                )
            if woken is None:
                counts[addr] += 1
            else:
                blocked.discard(woken)
        for a in addrs:
            st = table.state(a)
            if st.count < 0:
                raise InvariantViolation(
                    "sema-nonnegative", f"count {st.count} at {a:#x}"
                )
            if st.count > 0 and st.waiters:
                raise InvariantViolation(
                    "sema-zero-while-blocked",
                    f"count {st.count} with waiters {st.waiters} at {a:#x}",
                )
            if st.count != counts[a] or st.waiters != queues[a]:
                raise InvariantViolation(
                    "sema-model",
                    f"state({a:#x}) count={st.count} waiters={st.waiters}; "
                    f"model count={counts[a]} queue={queues[a]}",
                )


def _fuzz_barrier(rng, ops, threads, addrs, params) -> None:
    from repro.sim.sync import BarrierTable

    table = BarrierTable()
    parties = max(1, min(params.get("parties", 2), threads))
    arrived = {a: [] for a in addrs}
    generation = {a: 0 for a in addrs}
    for a in addrs:
        table.init(a, parties)
    blocked: set[int] = set()
    tids = list(range(1, threads + 1))
    for _ in range(ops):
        runnable = [t for t in tids if t not in blocked]
        if not runnable:
            break  # everyone parked across the barriers
        addr = rng.choice(addrs)
        tid = rng.choice(runnable)
        woken = table.arrive(addr, tid)
        if len(arrived[addr]) + 1 >= parties:
            if woken != arrived[addr]:
                raise InvariantViolation(
                    "barrier-batch",
                    f"trip at {addr:#x} woke {woken}, "
                    f"blocked batch was {arrived[addr]}",
                )
            for t in arrived[addr]:
                blocked.discard(t)
            arrived[addr] = []
            generation[addr] += 1
        else:
            if woken is not None:
                raise InvariantViolation(
                    "barrier-early-release",
                    f"{len(arrived[addr]) + 1}/{parties} arrivals at "
                    f"{addr:#x} released {woken}",
                )
            arrived[addr].append(tid)
            blocked.add(tid)
        for a in addrs:
            st = table.state(a)
            if st.generation != generation[a]:
                raise InvariantViolation(
                    "barrier-generation",
                    f"generation at {a:#x} is {st.generation}, model says "
                    f"{generation[a]} (must advance exactly once per batch)",
                )
            if table.waiting(a) != arrived[a] or len(st.arrived) >= parties:
                raise InvariantViolation(
                    "barrier-waiting",
                    f"waiting({a:#x})={table.waiting(a)}, model={arrived[a]}",
                )


def _fuzz_rwlock(rng, ops, threads, addrs, params) -> None:
    from repro.sim.sync import RwLockTable

    table = RwLockTable()
    writer = {a: None for a in addrs}
    readers = {a: [] for a in addrs}
    waiters = {a: [] for a in addrs}  # (tid, mode) in arrival order
    holding: dict[int, int] = {}  # tid -> the one address it holds
    blocked: set[int] = set()
    tids = list(range(1, threads + 1))
    for step in range(1, ops + 1):
        free = [t for t in tids if t not in blocked and t not in holding]
        if free and rng.randrange(100) < 60:
            tid = rng.choice(free)
            addr = rng.choice(addrs)
            mode = rng.choice(["rd", "wr"])
            if mode == "rd":
                got = table.try_rdlock(addr, tid)
                want = writer[addr] is None and not waiters[addr]
            else:
                got = table.try_wrlock(addr, tid)
                want = (
                    writer[addr] is None
                    and not readers[addr]
                    and not waiters[addr]
                )
            if got != want:
                raise InvariantViolation(
                    "rw-fifo-fairness",
                    f"try_{mode}lock({addr:#x}) by t{tid} -> {got}; model "
                    f"(writer={writer[addr]}, readers={readers[addr]}, "
                    f"waiters={waiters[addr]}) says {want}",
                )
            if got:
                holding[tid] = addr
                if mode == "wr":
                    writer[addr] = tid
                else:
                    readers[addr].append(tid)
            elif writer[addr] is None and not readers[addr]:
                raise InvariantViolation(
                    "rw-unheld-refusal",
                    f"{addr:#x} refused t{tid} while unheld — the "
                    f"grant-on-release policy left stale waiters "
                    f"{waiters[addr]}",
                )
            else:
                table.add_waiter(addr, tid, mode, step, step)
                waiters[addr].append((tid, mode))
                blocked.add(tid)
                edge = table.pending_edges().get(tid)
                owner = (
                    writer[addr]
                    if writer[addr] is not None
                    else readers[addr][0]
                )
                if edge is None or edge.owner != owner:
                    raise InvariantViolation(
                        "rw-wait-edge",
                        f"t{tid} waiting on {addr:#x} has edge {edge}, "
                        f"expected owner t{owner}",
                    )
        else:
            held = sorted(holding.items())
            if not held:
                continue
            tid, addr = held[rng.randrange(len(held))]
            granted = table.release(addr, tid)
            if writer[addr] == tid:
                writer[addr] = None
            else:
                readers[addr].remove(tid)
            del holding[tid]
            want: list[int] = []
            if writer[addr] is None and not readers[addr]:
                # the documented grant policy: front waiter wins; a
                # reader at the front pulls every consecutive reader
                # behind it; a writer is granted alone
                while waiters[addr]:
                    wtid, mode = waiters[addr][0]
                    if mode == "wr":
                        if want:
                            break
                        waiters[addr].pop(0)
                        writer[addr] = wtid
                        want.append(wtid)
                        break
                    waiters[addr].pop(0)
                    readers[addr].append(wtid)
                    want.append(wtid)
            if granted != want:
                raise InvariantViolation(
                    "rw-grant-fifo",
                    f"release({addr:#x}) granted {granted}, FIFO with "
                    f"reader batching says {want}",
                )
            for t in want:
                blocked.discard(t)
                holding[t] = addr
        for a in addrs:
            st = table.state(a)
            if st.writer is not None and st.readers:
                raise InvariantViolation(
                    "rw-exclusive",
                    f"writer t{st.writer} holds {a:#x} alongside readers "
                    f"{st.readers}",
                )
            model_holders = (
                [writer[a]] if writer[a] is not None else list(readers[a])
            )
            if table.holders(a) != model_holders:
                raise InvariantViolation(
                    "rw-holders",
                    f"holders({a:#x})={table.holders(a)}, "
                    f"model={model_holders}",
                )


def _fuzz_mutex(rng, ops, threads, addrs, params) -> None:
    from repro.sim.sync import LockTable

    table = LockTable()
    owner = {a: None for a in addrs}
    queues = {a: [] for a in addrs}
    held = {t: [] for t in range(1, threads + 1)}
    waiting: dict[int, int] = {}  # tid -> the address it blocks on
    for step in range(1, ops + 1):
        free = [t for t in held if t not in waiting]
        acquirable = [
            (t, a) for t in free for a in addrs if a not in held[t]
        ]
        if acquirable and rng.randrange(100) < 60:
            tid, addr = acquirable[rng.randrange(len(acquirable))]
            got = table.try_acquire(addr, tid)
            if got != (owner[addr] is None):
                raise InvariantViolation(
                    "mutex-acquire",
                    f"try_acquire({addr:#x}) by t{tid} -> {got} with "
                    f"owner {owner[addr]}",
                )
            if got:
                owner[addr] = tid
                held[tid].append(addr)
            else:
                table.add_waiter(addr, tid, step, step)
                queues[addr].append(tid)
                waiting[tid] = addr
                cycle = table.find_deadlock_cycle(tid)
                if (cycle is not None) != _wait_model_has_cycle(
                    owner, waiting, tid
                ):
                    raise InvariantViolation(
                        "mutex-deadlock-detect",
                        f"find_deadlock_cycle(t{tid}) -> {cycle}, but the "
                        f"owner/waiter model disagrees "
                        f"(owners={owner}, waiting={waiting})",
                    )
                if cycle is not None:
                    return  # deadlocked exactly when the model says: done
        else:
            candidates = [t for t, a in held.items() if a and t not in waiting]
            if not candidates:
                continue
            tid = rng.choice(candidates)
            addr = rng.choice(held[tid])
            inheritor = table.release(addr, tid)
            held[tid].remove(addr)
            want = queues[addr].pop(0) if queues[addr] else None
            if inheritor != want:
                raise InvariantViolation(
                    "mutex-fifo",
                    f"release({addr:#x}) handed to {inheritor}, FIFO head "
                    f"was {want}",
                )
            owner[addr] = want
            if want is not None:
                del waiting[want]
                held[want].append(addr)
        for a in addrs:
            if table.holder(a) != owner[a]:
                raise InvariantViolation(
                    "mutex-owner",
                    f"holder({a:#x})={table.holder(a)}, model={owner[a]}",
                )


def _wait_model_has_cycle(owner, waiting, start: int) -> bool:
    seen: set[int] = set()
    tid = start
    while tid in waiting:
        if tid in seen:
            return True
        seen.add(tid)
        next_tid = owner[waiting[tid]]
        if next_tid is None:
            return False
        tid = next_tid
    return False


# -- jobs: the fleet queue ---------------------------------------------------


def run_jobs(case: CheckCase) -> None:
    from repro.fleet.jobs import DiagnosisJobQueue, JobRejected

    rng = _rng(case)
    p = case.params
    n_jobs = max(1, p.get("jobs", 6))
    fail_pct = p.get("fail_pct", 30)
    specs = [
        (f"sig-{i}", rng.randrange(100) < fail_pct) for i in range(n_jobs)
    ]
    gate = threading.Event()

    def job(sig: str, fails: bool) -> Callable[[], object]:
        def fn() -> object:
            gate.wait(timeout=10)
            if fails:
                raise RuntimeError(f"injected failure for {sig}")
            return f"report-{sig}"
        return fn

    queue = DiagnosisJobQueue(
        workers=max(1, p.get("workers", 2)), max_pending=n_jobs
    )
    try:
        futures = {}
        for sig, fails in specs:
            future, dedup = queue.submit(sig, job(sig, fails))
            if dedup:
                raise InvariantViolation(
                    "dedup-only-on-repeat", f"fresh {sig} reported as dedup"
                )
            futures[sig] = future
        # every job is gated, so repeats MUST dedup onto the live future
        for sig, _fails in rng.sample(specs, min(2, n_jobs)):
            future, dedup = queue.submit(sig, job(sig, True))
            if not dedup or future is not futures[sig]:
                raise InvariantViolation(
                    "dedup-shares-future",
                    f"repeat of in-flight {sig} did not dedup",
                )
        # ...and the queue is exactly full: a novel signature bounces
        try:
            queue.submit("sig-overflow", job("sig-overflow", False))
        except JobRejected:
            pass
        else:
            raise InvariantViolation(
                "backpressure-bounds-queue",
                f"submit #{n_jobs + 1} accepted past max_pending={n_jobs}",
            )
        gate.set()
        for sig, fails in specs:
            err = futures[sig].exception(timeout=10)
            if fails != (err is not None):
                raise InvariantViolation(
                    "job-outcome-faithful",
                    f"{sig}: injected fails={fails}, future error={err!r}",
                )
        # completion bookkeeping: results cached iff successful, submit
        # timestamps dropped for every finished job
        deadline = time.monotonic() + 5.0
        while queue.tracked_submissions > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        if queue.tracked_submissions != 0:
            raise InvariantViolation(
                "bookkeeping-bounded",
                f"{queue.tracked_submissions} submit timestamps survive "
                f"completion of all {n_jobs} jobs",
            )
        if queue.depth != 0:
            raise InvariantViolation(
                "queue-drains", f"depth={queue.depth} after completion"
            )
        for sig, fails in specs:
            cached = queue.result_for(sig)
            if fails and cached is not None:
                raise InvariantViolation(
                    "failures-evicted", f"{sig} failed but stayed cached"
                )
            if not fails and cached is None:
                raise InvariantViolation(
                    "successes-cached", f"{sig} succeeded but was evicted"
                )
    finally:
        gate.set()
        queue.shutdown(wait=True)


# -- collect: step 8 transport/stopping differential -------------------------


def run_collect(case: CheckCase) -> None:
    """Evidence equivalence across every trace-collection transport.

    The pipelining contract: in-process serial collection, a window of
    one over a batch transport, and the derived batch window (both
    round-tripped through the wire codec, like a real fleet frame) must
    produce byte-identical evidence, and the adaptive stopping rule must
    be a pure function of the sample prefix — the serial and batched
    adaptive runs must agree with each other too.
    """
    from repro import api
    from repro.fleet.server import report_digest
    from repro.fleet.wire import decode_frame, encode_frame
    from repro.runtime.client import SnorlaxClient
    from repro.runtime.server import CollectionPolicy, SnorlaxServer

    rng = _rng(case)
    p = case.params
    kinds = generator.kinds_for_primitives(p.get("primitives", 0))
    module, _truth, workload, _kind = generator.gen_bug(rng, p, kinds=kinds)
    client = SnorlaxClient(module, workload)
    base = rng.randrange(1_000_000)
    failing_run = None
    for offset in range(max(1, p.get("seed_scan", 25))):
        run = client.run_once(base + offset)
        if run.failed:
            failing_run = run
            break
    if failing_run is None:
        raise CaseSkipped(f"no failing run in {p.get('seed_scan', 25)} seeds")
    uid = failing_run.failure.failing_uid
    start_seed = base + 10_000
    wanted = max(1, p.get("successes", 6))

    def make_server(**kw) -> SnorlaxServer:
        return SnorlaxServer(
            module,
            policy=CollectionPolicy(
                success_traces_wanted=wanted, max_collection_attempts=300, **kw
            ),
        )

    def batch_transport(server: SnorlaxServer):
        """A batch send that exercises the real wire codec end to end."""
        from repro.fleet.wire import TraceBatchRequest, TraceBatchResponse

        def send_batch(requests):
            frame = encode_frame(TraceBatchRequest(requests=tuple(requests)))
            batch, _rid = decode_frame(frame)
            responses = TraceBatchResponse(
                responses=tuple(
                    server.handle_trace_request(client, r)
                    for r in batch.requests
                )
            )
            reply, _rid = decode_frame(encode_frame(responses))
            return list(reply.responses)

        return send_batch

    def evidence(samples):
        return [
            (s.label, s.failing, s.buffers, s.positions) for s in samples
        ]

    serial = make_server()
    base_samples = serial.collect_successful_traces(client, uid, start_seed)
    families = [("serial", serial, base_samples)]
    single = make_server()
    one_at_a_time = batch_transport(single)
    families.append(
        (
            "window-1-wire",
            single,
            single.collect_traces_via(
                lambda req: one_at_a_time([req])[0], uid, start_seed
            ),
        )
    )
    batched = make_server()
    families.append(
        (
            "batched-wire",
            batched,
            batched.collect_traces_via(
                lambda req: batched.handle_trace_request(client, req),
                uid,
                start_seed,
                send_batch=batch_transport(batched),
            ),
        )
    )
    want = evidence(base_samples)
    for label, server, samples in families[1:]:
        if evidence(samples) != want:
            raise InvariantViolation(
                "collect-evidence-equal",
                f"{label} collection diverged from serial: "
                f"{[s.label for s in samples]} vs "
                f"{[s.label for s in base_samples]}",
            )
        if server.stats.success_traces != serial.stats.success_traces:
            raise InvariantViolation(
                "collect-stats-equal",
                f"{label} counted {server.stats.success_traces} successes, "
                f"serial counted {serial.stats.success_traces}",
            )
    failing_sample = serial.sample_from_run("failure", failing_run)
    if p.get("adaptive_check", 1):
        # adaptive stopping must depend only on the sample prefix, never
        # on the transport that delivered it
        adaptive = {}
        for label, send_batch_of in (
            ("adaptive-serial", lambda s: None),
            ("adaptive-batched", batch_transport),
        ):
            server = make_server(stopping="stable-top", adaptive_min_traces=3)
            adaptive[label] = server.collect_traces_via(
                lambda req, s=server: s.handle_trace_request(client, req),
                uid,
                start_seed,
                send_batch=send_batch_of(server),
                failing_sample=failing_sample,
            )
        if evidence(adaptive["adaptive-serial"]) != evidence(
            adaptive["adaptive-batched"]
        ):
            raise InvariantViolation(
                "adaptive-transport-invariant",
                "adaptive stopping collected different evidence over "
                "serial vs batched transport: "
                f"{[s.label for s in adaptive['adaptive-serial']]} vs "
                f"{[s.label for s in adaptive['adaptive-batched']]}",
            )
    if p.get("digest_check", 1):
        digest = report_digest(
            api.diagnose(module, traces=[failing_sample, *base_samples]).report
        )
        for label, _server, samples in families[1:]:
            again = api.diagnose(module, traces=[failing_sample, *samples])
            invariants.check_digest_match(
                digest, report_digest(again.report), label
            )


# -- e2e: the whole pipeline -------------------------------------------------


def run_e2e(case: CheckCase) -> None:
    from repro import api
    from repro.core.cache import DiagnosisCaches
    from repro.core.checkpoints import observed
    from repro.fleet.server import report_digest
    from repro.fleet.wire import decode_value, encode_value, sample_from_dict, sample_to_dict
    from repro.runtime.client import SnorlaxClient
    from repro.runtime.server import CollectionPolicy, SnorlaxServer

    rng = _rng(case)
    p = case.params
    kinds = generator.kinds_for_primitives(p.get("primitives", 0))
    module, truth, workload, kind = generator.gen_bug(rng, p, kinds=kinds)
    client = SnorlaxClient(module, workload)
    base = rng.randrange(1_000_000)
    failing_run = None
    for offset in range(max(1, p.get("seed_scan", 25))):
        run = client.run_once(base + offset)
        if run.failed:
            failing_run = run
            break
    if failing_run is None:
        raise CaseSkipped(f"no failing run in {p.get('seed_scan', 25)} seeds")
    server = SnorlaxServer(
        module,
        policy=CollectionPolicy(
            success_traces_wanted=max(1, p.get("successes", 4)),
            max_collection_attempts=300,
        ),
    )
    failing_sample = server.sample_from_run("failure", failing_run)
    successes = server.collect_successful_traces(
        client, failing_run.failure.failing_uid, start_seed=base + 10_000
    )
    samples = [failing_sample, *successes]
    observer = InvariantObserver(
        rng, solver_differential=bool(p.get("solver_diff", 1))
    )
    with observed(observer):
        result = api.diagnose(module, traces=samples)
    if observer.checks_by_point.get("pipeline.report", 0) == 0:
        raise InvariantViolation(
            "checkpoints-wired",
            "the diagnosis fired no pipeline.report checkpoint — the "
            "hook points have been disconnected",
        )
    report = result.report
    digest = report_digest(report)
    # ground truth: with the paper's evidence bound (10 successful
    # traces, §5) and a report the pipeline itself calls unambiguous,
    # the injected bug must sit in the top-F1 tier of the ranking — a
    # strictly better-scoring satellite would mean the scorer is
    # broken.  Losing only the *tie-break* (to an embedded sub-pair,
    # or to a satellite that happens to correlate perfectly for this
    # shape's timing) is legitimate statistics, so that is allowed.
    # When the report flags ambiguity ("manual inspection needed") or
    # evidence is scarce, nothing is asserted: random timing shapes,
    # unlike the tuned corpus, can leave the true pattern unwitnessed.
    full_evidence = len(successes) >= 10
    if kind in ("deadlock", "lock-chain"):
        if report.bug_kind != "deadlock":
            raise InvariantViolation(
                "ground-truth-kind",
                f"injected a {kind}, diagnosed {report.bug_kind!r}",
            )
    elif full_evidence and report.unambiguous:
        truth_uids = truth.resolve(module)
        if not report.diagnosed:
            raise InvariantViolation(
                "ground-truth-diagnosed",
                f"injected {kind} bug produced no diagnosis "
                f"({len(samples)} samples)",
            )
        if report.ordered_target_uids() != truth_uids:
            top_f1 = report.ranked_patterns[0].f1
            tier = [
                [uid for uid, _role in s.signature.events]
                for s in report.ranked_patterns
                if s.f1 == top_f1
            ]
            if truth_uids not in tier:
                raise InvariantViolation(
                    "ground-truth-ranked",
                    f"injected uids {truth_uids} missing from the "
                    f"top-F1 tier (F1={top_f1:.3f}, "
                    f"{len(tier)} tied); diagnosed "
                    f"{report.ordered_target_uids()} "
                    f"(pattern {report.root_cause.signature})",
                )
    if p.get("cache_check", 1):
        caches = DiagnosisCaches()
        for label in ("cache-cold", "cache-warm"):
            again = api.diagnose(module, traces=samples, caches=caches)
            invariants.check_digest_match(
                digest, report_digest(again.report), label
            )
    if p.get("wire_check", 1):
        wired = []
        for s in samples:
            buf = bytearray()
            encode_value(sample_to_dict(s), buf)
            decoded, _pos = decode_value(bytes(buf))
            wired.append(sample_from_dict(decoded))
        via_wire = api.diagnose(module, traces=wired)
        invariants.check_digest_match(
            digest, report_digest(via_wire.report), "fleet-wire"
        )
    if p.get("store_check", 1):
        # store-backed differential: persisting decoded traces and
        # hydrating them from disk (fresh in-memory LRUs each run, so
        # the second run can only hit via the store) must not change a
        # single digest byte vs the store-free baseline
        from repro.store import DiagnosisStore, persistent_caches

        with DiagnosisStore() as db:
            first = api.diagnose(
                module, traces=samples, caches=persistent_caches(db)
            )
            invariants.check_digest_match(
                digest, report_digest(first.report), "store-cold"
            )
            second = api.diagnose(
                module, traces=samples, caches=persistent_caches(db)
            )
            invariants.check_digest_match(
                digest, report_digest(second.report), "store-warm"
            )
            wrote = db.trace_stats.writes
            hydrated = db.trace_stats.hits
            if wrote > 0 and hydrated == 0:
                raise InvariantViolation(
                    "store-hydrates",
                    f"the first run persisted {wrote} traces but the "
                    "second (fresh-LRU) run hydrated none of them from "
                    "the store",
                )


# -- validate: the reproduction loop -----------------------------------------


def run_validate(case: CheckCase) -> None:
    """Close-the-loop oracle on a generated bug.

    Two invariants: (1) the injected ground-truth order must validate —
    the failure fires under the forced order and not under the inverse;
    (2) when the pipeline's own top-F1 diagnosis names the true
    pattern, its directed replay must never refute it.  (A refuted
    *mis*diagnosis is the validator working as designed, not a
    violation.)
    """
    from repro import api
    from repro.runtime.client import SnorlaxClient
    from repro.runtime.server import CollectionPolicy, SnorlaxServer
    from repro.validate.engine import validate_order, validate_report
    from repro.validate.synthesizer import TargetOrder

    rng = _rng(case)
    p = case.params
    kinds = generator.kinds_for_primitives(p.get("primitives", 0))
    module, truth, workload, kind = generator.gen_bug(rng, p, kinds=kinds)
    client = SnorlaxClient(module, workload)
    base = rng.randrange(1_000_000)
    failing_run = failing_seed = None
    for offset in range(max(1, p.get("seed_scan", 25))):
        run = client.run_once(base + offset)
        if run.failed:
            failing_run, failing_seed = run, base + offset
            break
    if failing_run is None:
        raise CaseSkipped(f"no failing run in {p.get('seed_scan', 25)} seeds")
    uid = failing_run.failure.failing_uid

    order = TargetOrder.from_truth(module, truth)
    outcome = validate_order(
        module, workload, order, failing_seed=failing_seed, expected_uid=uid
    )
    if outcome.status != "validated":
        detail = "; ".join(outcome.render().splitlines())
        raise InvariantViolation(
            "ground-truth-validates",
            f"injected {kind} bug (uids {order.uids}) did not validate: "
            f"{detail}",
        )

    if not p.get("report_check", 1):
        return
    # Diagnose through the production pipeline, then turn the validator
    # on the pipeline's own report.  A top-F1 report that names the
    # true pattern yet gets refuted by its directed replay means the
    # loop is broken on one side or the other.
    server = SnorlaxServer(
        module,
        policy=CollectionPolicy(
            success_traces_wanted=max(1, p.get("successes", 6)),
            max_collection_attempts=300,
        ),
    )
    failing_sample = server.sample_from_run("failure", failing_run)
    successes = server.collect_successful_traces(
        client, uid, start_seed=base + 10_000
    )
    report = api.diagnose(
        module, traces=[failing_sample, *successes]
    ).report
    verdict = validate_report(
        module, workload, report, failing_seed=failing_seed
    )
    if verdict is None:
        return  # nothing diagnosed (e.g. deadlock report) — vacuous
    if (
        verdict.status == "refuted"
        and report.ordered_target_uids() == truth.resolve(module)
    ):
        detail = "; ".join(verdict.render().splitlines())
        raise InvariantViolation(
            "no-refuted-top-f1",
            f"the top-F1 report names the injected {kind} pattern "
            f"{report.ordered_target_uids()} but its directed replay "
            f"refuted it: {detail}",
        )


# -- monitor: always-on anomaly-triggered diagnosis --------------------------


def run_monitor(case: CheckCase) -> None:
    """The always-on differential: a diagnosis the anomaly detector
    started unprompted (from a monitor loop's sampled telemetry) must
    digest byte-identically to the on-demand diagnosis of the same
    failure, and must carry a queryable evidence graph that survives a
    serialization round-trip with its digest intact.

    The monitor loop walks seeds from the same base the on-demand
    reporter would scan, and the detector is configured to trip on the
    first failing sample — so both paths diagnose the same failing run
    and the digests are comparable exactly.
    """
    from repro.fleet.agent import FleetAgent, MonitorLoop
    from repro.fleet.anomaly import EwmaAnomalyDetector
    from repro.fleet.server import FleetServer, report_digest
    from repro.fleet.shard import signature_for_failure
    from repro.provenance import EvidenceGraph, report_key
    from repro.runtime.client import SnorlaxClient
    from repro.runtime.server import CollectionPolicy, SnorlaxServer

    rng = _rng(case)
    p = case.params
    kinds = generator.kinds_for_primitives(p.get("primitives", 0))
    module, _truth, workload, _kind = generator.gen_bug(rng, p, kinds=kinds)
    client = SnorlaxClient(module, workload)
    base = rng.randrange(1_000_000)
    scan = max(1, p.get("seed_scan", 25))
    failing_run = None
    for offset in range(scan):
        run = client.run_once(base + offset)
        if run.failed:
            failing_run = run
            break
    if failing_run is None:
        raise CaseSkipped(f"no failing run in {scan} seeds")
    signature = signature_for_failure("check-monitor", failing_run)

    class _Clock:
        t = 0.0

        def __call__(self) -> float:
            return self.t

    clock = _Clock()
    successes = max(1, p.get("successes", 4))
    server = FleetServer(
        module_resolver=lambda bug_id: module,
        workers=1,
        success_traces_wanted=successes,
        anomaly_detector=EwmaAnomalyDetector(
            alpha=0.5, failure_threshold=0.5, min_observations=1,
            window_s=1e9,
        ),
        clock=clock,
    )
    host, port = server.start()
    agent = FleetAgent("check-monitor-0", "check-monitor", module, workload,
                       host, port)
    try:
        agent.connect()
        monitor = MonitorLoop(
            agent, heartbeat_interval_s=1.0, sample_interval_s=0.5,
            start_seed=base, clock=clock,
        )
        deadline = time.monotonic() + 120.0
        anomaly_digest = None
        while time.monotonic() < deadline:
            monitor.tick(clock.t)
            clock.t += 0.5
            anomaly_digest = server.anomaly_digests().get(signature)
            if anomaly_digest is not None:
                break
            time.sleep(0.002)
        if anomaly_digest is None:
            raise InvariantViolation(
                "anomaly-triggers",
                f"monitor streamed {monitor.samples_sent} samples "
                f"({monitor.failures_seen} failures) but the detector "
                f"produced no diagnosis for {signature}",
            )
        in_process = SnorlaxServer(
            module, policy=CollectionPolicy(success_traces_wanted=successes)
        ).diagnose(failing_run, client).report
        invariants.check_digest_match(
            report_digest(in_process), anomaly_digest, "monitor-anomaly"
        )
        key = report_key(anomaly_digest)
        graph = server.evidence_graph(key)
        if graph is None:
            raise InvariantViolation(
                "evidence-queryable",
                f"anomaly-triggered report {key[:12]} has no evidence graph",
            )
        replayed = EvidenceGraph.from_dict(graph.to_dict())
        if replayed.digest() != graph.digest():
            raise InvariantViolation(
                "evidence-round-trip",
                "evidence graph digest changed across a to_dict/from_dict "
                f"round-trip ({graph.digest()[:12]} -> "
                f"{replayed.digest()[:12]})",
            )
    finally:
        agent.close()
        server.stop()


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    name: str
    run: Callable[[CheckCase], None]
    defaults: dict[str, int]
    minimums: dict[str, int] = field(default_factory=dict)
    weight: int = 1  # share of cases in a mixed run


STAGES: dict[str, StageSpec] = {
    spec.name: spec
    for spec in (
        StageSpec(
            name="trace",
            run=run_trace,
            defaults={
                "threads": 4, "events": 12, "uids": 6, "desync_pct": 30,
                "zero_width_pct": 10, "anchor_fresh_pct": 30, "attaches": 2,
            },
            minimums={"threads": 1, "events": 1, "uids": 1},
            weight=30,
        ),
        StageSpec(
            name="stats",
            run=run_stats,
            defaults={
                "observations": 8, "failing": 3, "sigs": 5, "max_rank": 5,
                "dynamics_pct": 50,
            },
            minimums={"observations": 1, "sigs": 1, "max_rank": 1},
            weight=25,
        ),
        StageSpec(
            name="pointsto",
            run=run_pointsto,
            defaults={
                "vars": 12, "objs": 6, "copies": 10, "loads": 6, "stores": 6,
                "module_pct": 30, "kloc": 2, "quantum": 500, "iters": 6,
                "cold": 0, "primitives": 0,
            },
            minimums={"vars": 2, "objs": 1, "kloc": 1, "quantum": 350,
                      "iters": 4},
            weight=20,
        ),
        StageSpec(
            name="sim",
            run=run_sim,
            defaults={
                "ops": 60, "threads": 4, "addrs": 3, "parties": 2,
                "primitives": 0,
            },
            minimums={"ops": 1, "threads": 2, "addrs": 1, "parties": 1},
            weight=15,
        ),
        StageSpec(
            name="jobs",
            run=run_jobs,
            defaults={"jobs": 6, "fail_pct": 30, "workers": 2},
            minimums={"jobs": 1, "workers": 1},
            weight=10,
        ),
        StageSpec(
            name="collect",
            run=run_collect,
            defaults={
                "successes": 6, "seed_scan": 25, "quantum": 500, "iters": 6,
                "kloc": 2, "cold": 0, "adaptive_check": 1, "digest_check": 1,
                "primitives": 0,
            },
            minimums={"successes": 1, "seed_scan": 1, "quantum": 350,
                      "iters": 4, "kloc": 1},
            weight=10,
        ),
        StageSpec(
            name="e2e",
            run=run_e2e,
            defaults={
                "successes": 10, "seed_scan": 25, "quantum": 500, "iters": 6,
                "kloc": 2, "cold": 0, "solver_diff": 1, "cache_check": 1,
                "wire_check": 1, "store_check": 1, "primitives": 0,
            },
            minimums={"successes": 10, "seed_scan": 1, "quantum": 350,
                      "iters": 4, "kloc": 1},
            weight=15,
        ),
        StageSpec(
            name="monitor",
            run=run_monitor,
            defaults={
                "successes": 4, "seed_scan": 25, "quantum": 500, "iters": 6,
                "kloc": 2, "cold": 0, "primitives": 0,
            },
            minimums={"successes": 1, "seed_scan": 1, "quantum": 350,
                      "iters": 4, "kloc": 1},
            weight=5,
        ),
        StageSpec(
            name="validate",
            run=run_validate,
            defaults={
                "successes": 6, "seed_scan": 25, "quantum": 500, "iters": 6,
                "kloc": 2, "cold": 0, "report_check": 1, "primitives": 0,
            },
            minimums={"successes": 1, "seed_scan": 1, "quantum": 350,
                      "iters": 4, "kloc": 1},
            weight=10,
        ),
    )
}


def stage_names() -> list[str]:
    return list(STAGES)


def resolve_stages(names: list[str] | None) -> list[StageSpec]:
    if not names:
        return list(STAGES.values())
    unknown = [n for n in names if n not in STAGES]
    if unknown:
        raise ValueError(
            f"unknown stage(s) {unknown}; available: {stage_names()}"
        )
    return [STAGES[n] for n in names]
