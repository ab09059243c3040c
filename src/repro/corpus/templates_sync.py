"""Sync-primitive bug templates: condvars, rwlocks, semaphores, barriers.

The corpus-expansion counterpart of :mod:`repro.corpus.templates`.  Each
builder injects one bug whose mechanics hinge on a richer primitive than
a plain mutex, following the same structural rules (fences after target
accesses, benign twins on successful paths, quantum-scaled delays):

* ``lost-wakeup`` — a condvar notify races ahead of the wait it was
  meant to wake; the signal has no memory, so the waiter hangs (a WR
  order violation whose failure kind is ``hang``, not a crash);
* ``rw-race`` — a lock-free fast path reads a pointer that the slow
  path clears and re-installs under the write lock: the rwlock protects
  every path but the one that races (RWR atomicity violation);
* ``sema-underflow`` — a producer posts the items-available semaphore
  *before* publishing the item, so the woken consumer can read the
  still-null slot (RW order violation);
* ``barrier-phase`` — a worker's read of the phase result is hoisted
  above its ``barrierwait``, racing the producing thread's store that
  correctly happens before the barrier (RW order violation);
* ``lock-chain`` — three threads run the same acquire-two-locks routine
  with rotated lock pairs (A<B, B<C, C<A): a circular-wait deadlock no
  two-lock inspection can see.

Every target-event line keeps the house convention: the victim's events
at ``L+10``/``L+12``, the rival's at ``L+30``/``L+32``, main's late
write at ``L+40``.
"""

from __future__ import annotations

from repro.corpus.registry import EventLocator, GroundTruth
from repro.corpus.templates import US, BugShape, _fence, _new_app_module, _q, _rng
from repro.ir.types import BARRIER, COND, I64, LOCK, RWLOCK, SEMA, VOID, ptr


# ---------------------------------------------------------------------------
# Order violation, WR shape on a condvar: lost wakeup (hang)
# ---------------------------------------------------------------------------


def build_lost_wakeup(shape: BugShape):
    """Main signals completion whether or not the worker is waiting yet.

    The worker's wait is naked — no predicate re-check before blocking —
    so a notify that fires first is simply dropped and the worker blocks
    forever.  The failing order is notify (W) before wait (R): the same
    WR shape as a use-after-free, except the manifestation is a hang
    anchored at the blocked ``condwait``.
    """
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, COND)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("d_wait", I64), ("d_use", I64)])
    b.call(warm, [b.i64(2)])
    b.delay(b.param("d_wait"))
    s = b.load(G, "s")
    cv = b.fieldaddr(s, shape.aux_field, "cv")
    with b.at_location(f, L + 10):
        b.cond_wait(cv)  # R target: hangs when the notify already fired
    _fence(b)
    b.delay(b.param("d_use"))
    rp = b.fieldaddr(s, shape.target_field, "rp")
    with b.at_location(f, L + 12):
        v = b.load(rp, "v")
    ok = b.cmp("ge", v, 0)
    with b.if_then(ok):
        pass
    b.ret()

    b.begin_function("main", VOID, [("d_sig", I64), ("d_wait", I64), ("d_use", I64)])
    res = b.malloc(S, name="res")
    cv0 = b.fieldaddr(res, shape.aux_field, "cv0")
    b.cond_init(cv0)
    b.store_field(13, res, shape.target_field)
    b.store(res, G)
    _fence(b)
    t = b.spawn(shape.worker_name, [b.param("d_wait"), b.param("d_use")], "t")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 3) as jv:
        b.call(warm, [jv])
    b.delay(b.param("d_sig"))  # the work being signalled about
    s2 = b.load(G, "s2")
    cv2 = b.fieldaddr(s2, shape.aux_field, "cv2")
    with b.at_location(f, L + 40):
        b.cond_notify(cv2)  # W target: lost when nobody waits yet
    _fence(b)
    b.join(t)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        d_sig = 6 * q + rng.randint(-4 * US, 4 * US)
        k = rng.choice([-3, -2, -1, 1, 2])  # k > 0: the notify fires first
        d_wait = d_sig + k * q
        return (d_sig, max(d_wait, q), 2 * q)

    truth = GroundTruth(
        kind="order-violation",
        pattern="WR",
        events=[EventLocator(f, L + 40, "W"), EventLocator(f, L + 10, "R")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Atomicity violation, RWR shape around a reader-writer lock
# ---------------------------------------------------------------------------


def build_rw_race(shape: BugShape):
    """A lock-free fast path races the wrlock-protected refresh.

    The cache entry is cleared and re-installed under the write lock,
    and the slow path reads it under the read lock — but the hot-path
    reader skips the rwlock entirely (that *is* the bug), so the clear
    can land between its check and its use.
    """
    m, b, warm = _new_app_module(shape)
    Buf = m.add_struct(f"{shape.struct_name}Entry", [("c", I64)])
    S = m.add_struct(
        shape.struct_name,
        [(shape.target_field, ptr(Buf)), (shape.aux_field, I64), ("rw", RWLOCK)],
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    # Refresh routine: clear + re-install, correctly under the wrlock.
    # Called benignly by main at startup and racily by the rival thread.
    b.begin_function(f"{shape.rival_name}_once", VOID, [("d_clear", I64)])
    s = b.load(G, "s")
    rw = b.fieldaddr(s, "rw", "rw")
    b.rw_wrlock(rw)
    ip = b.fieldaddr(s, shape.target_field, "ip")
    with b.at_location(f, L + 30):
        b.store(b.null(Buf), ip)  # W: the clear
    _fence(b)
    b.delay(b.param("d_clear"))
    nb = b.malloc(Buf, name="nb")
    b.store_field(9, nb, "c")
    with b.at_location(f, L + 32):
        b.store(nb, ip)  # re-install
    _fence(b)
    b.rw_unlock(rw)
    b.ret()

    b.begin_function(shape.worker_name, VOID, [("n", I64), ("d_win", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        ip = b.fieldaddr(s, shape.target_field, "ip")
        with b.at_location(f, L + 10):
            p1 = b.load(ip, "p1")  # R1: the unlocked fast-path check
        nz = b.cmp("ne", b.cast(p1, I64), 0)
        with b.if_then(nz):
            b.delay(b.param("d_win"))  # check-to-use window
            with b.at_location(f, L + 12):
                p2 = b.load(ip, "p2")  # R2: the use (re-read)
            _fence(b)
            cp = b.fieldaddr(p2, "c", "cp")
            with b.at_location(f, L + 13):
                v = b.load(cp, "v")  # crashes when the refresh cleared in between
            pos = b.cmp("ge", v, 0)
            with b.if_then(pos):
                pass
        # benign slow path: stats read, correctly under the rdlock
        rw = b.fieldaddr(s, "rw", "rw")
        b.rw_rdlock(rw)
        hp = b.fieldaddr(s, shape.aux_field, "hp")
        with b.at_location(f, L + 16):
            h = b.load(hp, "h")
        lo = b.cmp("ge", h, 0)
        with b.if_then(lo):
            pass
        b.rw_unlock(rw)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(
        shape.rival_name, VOID, [("n", I64), ("off", I64), ("d_clear", I64), ("d_per", I64)]
    )
    b.call(warm, [b.i64(1)])
    b.delay(b.param("off"))
    k = b.alloca(I64, "k")
    with b.for_range(k, 0, b.param("n")):
        b.call(f"{shape.rival_name}_once", [b.param("d_clear")])
        b.delay(b.param("d_per"))
    b.ret()

    b.begin_function(
        "main",
        VOID,
        [("n", I64), ("d_win", I64), ("d_idle", I64), ("off", I64), ("d_clear", I64), ("d_per", I64)],
    )
    s = b.malloc(S, name="st")
    rw0 = b.fieldaddr(s, "rw", "rw0")
    b.rw_init(rw0)
    buf = b.malloc(Buf, name="entry0")
    b.store_field(5, buf, "c")
    b.store_field(buf, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    b.call(f"{shape.rival_name}_once", [b.i64(2 * US)])  # benign refresh pass
    tr = b.spawn(shape.worker_name, [b.param("n"), b.param("d_win"), b.param("d_idle")], "tr")
    tw = b.spawn(
        shape.rival_name,
        [b.param("n"), b.param("off"), b.param("d_clear"), b.param("d_per")],
        "tw",
    )
    b.join(tr)
    b.join(tw)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = shape.iters
        d_win = 2 * q
        d_idle = q
        cycle = d_win + d_idle  # reader period ~ 3q
        slot = rng.choice([0.5, 1.5, 2.5])  # 2.5 -> idle phase (benign)
        k_cycle = rng.randint(0, n - 2)
        off = int(k_cycle * cycle + slot * q) + rng.randint(-3 * US, 3 * US)
        d_clear = 3 * q  # the re-install lands well past the window
        d_per = 3 * cycle
        return (n, d_win, d_idle, off, d_clear, d_per)

    truth = GroundTruth(
        kind="atomicity-violation",
        pattern="RWR",
        events=[
            EventLocator(f, L + 10, "R"),
            EventLocator(f, L + 30, "W"),
            EventLocator(f, L + 12, "R"),
        ],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Order violation, RW shape on a semaphore: post-before-publish
# ---------------------------------------------------------------------------


def build_sem_underflow(shape: BugShape):
    """The producer posts the items semaphore before storing the item.

    The semaphore correctly meters *how many* items are available, but
    the post was hoisted above the publication store, so the consumer it
    wakes can read the slot while it is still null — the classic
    "semaphore counts permits, not data" misunderstanding.
    """
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    SEM = m.add_global(f"{shape.global_name}_items", SEMA)
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("d_poll", I64), ("d_use", I64)])
    b.call(warm, [b.i64(3)])
    with b.at_location(f, L + 8):
        b.sem_wait(SEM)  # wakes as soon as the producer posts
    _fence(b)
    b.delay(b.param("d_poll"))
    with b.at_location(f, L + 10):
        p = b.load(G, "p")  # R target: may observe the unpublished null
    _fence(b)
    b.delay(b.param("d_use"))
    c = b.fieldaddr(p, shape.target_field, "c")
    with b.at_location(f, L + 12):
        v = b.load(c, "v")  # deferred crash when p was null
    ok = b.cmp("ge", v, 0)
    with b.if_then(ok):
        pass
    b.ret()

    b.begin_function(
        "main", VOID, [("d_pre", I64), ("d_gap", I64), ("d_poll", I64), ("d_use", I64)]
    )
    b.sem_init(SEM, 0)
    _fence(b)
    t = b.spawn(shape.worker_name, [b.param("d_poll"), b.param("d_use")], "t")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 3) as jv:
        b.call(warm, [jv])
    b.delay(b.param("d_pre"))
    with b.at_location(f, L + 30):
        b.sem_post(SEM)  # the hoisted post: item announced...
    _fence(b)
    b.delay(b.param("d_gap"))  # ...but built only now
    res = b.malloc(S, name="res")
    b.store_field(11, res, shape.target_field)
    b.store_field(2, res, shape.aux_field)
    with b.at_location(f, L + 40):
        b.store(res, G)  # W target: the (too late) publication
    _fence(b)
    b.call(warm, [b.i64(1)])
    b.join(t)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        d_pre = 6 * q  # the consumer is parked on the semaphore by then
        d_gap = 4 * q + rng.randint(-2 * US, 2 * US)
        k = rng.choice([-3, -2, -1, 1, 2])  # k < 0: the read wins the race
        d_poll = d_gap + k * q
        # d_use must exceed |k|*q so the deferred deref always lands
        # after the producer's (unlocated) init stores: the only pattern
        # alive at the crash site is then the true load/publish race.
        return (d_pre, d_gap, max(d_poll, q), 5 * q)

    truth = GroundTruth(
        kind="order-violation",
        pattern="RW",
        events=[EventLocator(f, L + 10, "R"), EventLocator(f, L + 40, "W")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Order violation, RW shape at a barrier: read hoisted above the wait
# ---------------------------------------------------------------------------


def build_barrier_phase(shape: BugShape):
    """A worker reads the phase result before its own barrier arrival.

    The producer correctly stores the result and then arrives; the
    consumer's load was hoisted above its ``barrierwait`` (phase-ordered
    code motion), so the stale pointer it grabbed races the store.  Both
    threads still reach the barrier on every path — successful runs
    complete normally, and the failure is a crash after the barrier,
    never a hang at it.
    """
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    BAR = m.add_global(f"{shape.global_name}_phase", BARRIER)
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.rival_name, VOID, [("d_prod", I64)])
    b.call(warm, [b.i64(1)])
    b.delay(b.param("d_prod"))  # computing the phase result
    res = b.malloc(S, name="res")
    b.store_field(21, res, shape.target_field)
    b.store_field(3, res, shape.aux_field)
    with b.at_location(f, L + 40):
        b.store(res, G)  # W target: publish, correctly before arriving
    _fence(b)
    with b.at_location(f, L + 42):
        b.barrier_wait(BAR)
    _fence(b)
    b.ret()

    b.begin_function(shape.worker_name, VOID, [("d_pre", I64), ("d_use", I64)])
    b.call(warm, [b.i64(2)])
    b.delay(b.param("d_pre"))
    with b.at_location(f, L + 10):
        p = b.load(G, "p")  # R target: hoisted above the barrier (the bug)
    _fence(b)
    with b.at_location(f, L + 14):
        b.barrier_wait(BAR)
    _fence(b)
    b.delay(b.param("d_use"))
    c = b.fieldaddr(p, shape.target_field, "c")
    with b.at_location(f, L + 12):
        v = b.load(c, "v")  # deferred crash: p predates the barrier
    ok = b.cmp("ge", v, 0)
    with b.if_then(ok):
        pass
    b.ret()

    b.begin_function("main", VOID, [("d_prod", I64), ("d_pre", I64), ("d_use", I64)])
    b.barrier_init(BAR, 2)
    _fence(b)
    tp = b.spawn(shape.rival_name, [b.param("d_prod")], "tp")
    tc = b.spawn(shape.worker_name, [b.param("d_pre"), b.param("d_use")], "tc")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 3) as jv:
        b.call(warm, [jv])
    b.join(tp)
    b.join(tc)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        d_prod = 5 * q + rng.randint(-3 * US, 3 * US)
        k = rng.choice([-3, -2, -1, 1, 2])  # k < 0: the read wins the race
        d_pre = d_prod + k * q
        return (d_prod, max(d_pre, q), 2 * q)

    truth = GroundTruth(
        kind="order-violation",
        pattern="RW",
        events=[EventLocator(f, L + 10, "R"), EventLocator(f, L + 40, "W")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Deadlock: three-lock circular chain through one shared routine
# ---------------------------------------------------------------------------


def build_lock_chain(shape: BugShape):
    """Three threads, one routine, rotated lock pairs: A<B, B<C, C<A.

    Unlike the two-thread AB-BA shape, every *pair* of threads here uses
    a consistent order — only the full three-edge cycle deadlocks, so
    pairwise lock-order review passes the code.  All threads run the
    same function, which also makes the race symmetric: the validated
    counterfactual schedule is whole-routine serialization.
    """
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name,
        [
            ("m_a", LOCK),
            ("m_b", LOCK),
            ("m_c", LOCK),
            (shape.target_field, I64),
            (shape.aux_field, I64),
        ],
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(
        shape.worker_name,
        VOID,
        [
            ("first", ptr(LOCK)),
            ("second", ptr(LOCK)),
            ("n", I64),
            ("off", I64),
            ("d_hold", I64),
            ("d_idle", I64),
        ],
    )
    b.call(warm, [b.i64(2)])
    b.delay(b.param("off"))
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        with b.at_location(f, L + 10):
            b.lock(b.param("first"))  # hold this shard...
        _fence(b)
        b.delay(b.param("d_hold"))
        with b.at_location(f, L + 12):
            b.lock(b.param("second"))  # ...then attempt the next one over
        _fence(b)
        s = b.load(G, "s")
        tp = b.fieldaddr(s, shape.target_field, "tp")
        b.store(b.add(b.load(tp), 1), tp)
        b.unlock(b.param("second"))
        b.unlock(b.param("first"))
        _fence(b)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(
        "main",
        VOID,
        [("n", I64), ("d_hold", I64), ("d_idle", I64), ("off1", I64), ("off2", I64), ("off3", I64)],
    )
    s = b.malloc(S, name="tbl")
    la = b.fieldaddr(s, "m_a", "la")
    lb = b.fieldaddr(s, "m_b", "lb")
    lc = b.fieldaddr(s, "m_c", "lc")
    b.lock_init(la)
    b.lock_init(lb)
    b.lock_init(lc)
    b.store_field(0, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    shared = [b.param("n"), b.param("d_hold"), b.param("d_idle")]
    t1 = b.spawn(shape.worker_name, [la, lb, shared[0], b.param("off1"), *shared[1:]], "t1")
    t2 = b.spawn(shape.worker_name, [lb, lc, shared[0], b.param("off2"), *shared[1:]], "t2")
    t3 = b.spawn(shape.worker_name, [lc, la, shared[0], b.param("off3"), *shared[1:]], "t3")
    b.join(t1)
    b.join(t2)
    b.join(t3)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = max(2, shape.iters - 3)
        d_hold = 2 * q
        d_idle = 3 * q
        # Each thread starts its episode in one of two phase slots; the
        # cycle closes only when all three pick the same slot (~1 in 4).
        offs = [
            int(rng.choice([0.5, 3.0]) * q) + rng.randint(-3 * US, 3 * US)
            for _ in range(3)
        ]
        return (n, d_hold, d_idle, *offs)

    truth = GroundTruth(
        kind="deadlock",
        pattern="deadlock",
        events=[
            EventLocator(f, L + 10, "L"),  # one thread's hold...
            EventLocator(f, L + 10, "L"),  # ...its neighbour's hold...
            EventLocator(f, L + 12, "L"),  # ...the first attempt...
            EventLocator(f, L + 12, "L"),  # ...and the one that closes the cycle
        ],
    )
    return m, truth, workload


# Template key -> (builder, primitives exercised).  Keys are disjoint
# from ``templates.TEMPLATES`` (those stay stable for the check
# generator's kind vocabulary); ``corpus.make_spec`` consults the merged
# view.
PRIMITIVE_TEMPLATES = {
    "lost-wakeup": build_lost_wakeup,
    "rw-race": build_rw_race,
    "sema-underflow": build_sem_underflow,
    "barrier-phase": build_barrier_phase,
    "lock-chain": build_lock_chain,
}

# The ground-truth kind of each template class (see TEMPLATE_KINDS in
# templates.py).
PRIMITIVE_TEMPLATE_KINDS = {
    "lost-wakeup": "order-violation",
    "rw-race": "atomicity-violation",
    "sema-underflow": "order-violation",
    "barrier-phase": "order-violation",
    "lock-chain": "deadlock",
}

# The primitive vocabulary each template class exercises (the
# ``BugSpec.primitives`` value app modules should pass to make_spec).
TEMPLATE_PRIMITIVES = {
    "lost-wakeup": ("condvar",),
    "rw-race": ("rwlock",),
    "sema-underflow": ("sema",),
    "barrier-phase": ("barrier",),
    "lock-chain": ("mutex",),
}
