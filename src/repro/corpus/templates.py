"""Concurrency-bug templates.

Each builder assembles a complete application model around one injected
bug from the paper's taxonomy (Figure 1), returning the module, the
developer-verified ground truth, and a seed-indexed workload generator.
App modules instantiate these with their own vocabulary (struct/field/
function names, source files and lines) and add their own cold bulk, so
the 54 corpus bugs share failure *mechanics* without sharing code
shapes.

Two structural rules keep diagnosis faithful to the paper:

* **Fences.** Every target access is followed by a conditional branch
  (as real code always is: status checks, loop conditions).  A branch
  emits a TNT event, which is what lets the decoder close the access's
  time interval at the next timing packet; an access followed by a long
  branch-free delay would float with a huge interval and the partial
  order could not rank it.
* **Benign twins.** Interfering accesses also run on benign paths (a
  shared maintenance routine called at init, clears that land in idle
  phases).  Statistical diagnosis needs "satellite" patterns — shapes
  that embed or neighbour the true one — to occur in successful runs so
  their F1 drops below the root cause's.

Timing design: delays are quantized to the bug's quantum ``q`` so the
gaps between target events in failing interleavings land near
half-integer multiples of ``q`` (0.5q, 1.5q, ...), reproducing the
paper's §3 finding (no gap below ~91 us) while keeping failing and
successful seeds both common.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus.appkit import AppProfile, add_cold_code, add_warm_worker
from repro.corpus.registry import EventLocator, GroundTruth
from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.types import I64, LOCK, VOID, ptr

US = 1_000  # ns per us


@dataclass
class BugShape:
    """App vocabulary + timing for one templated bug."""

    profile: AppProfile
    bug_id: str
    file: str  # source file of the buggy code
    struct_name: str
    target_field: str
    aux_field: str
    global_name: str
    worker_name: str  # the victim thread's function
    rival_name: str  # the interfering thread's function
    helper_name: str  # warm (branchy) helper function
    base_line: int
    quantum_us: int  # dT scale (q)
    iters: int = 6
    cold_code: bool = True


def _new_app_module(shape: BugShape) -> tuple[Module, IRBuilder, str]:
    module = Module(f"{shape.profile.name}-{shape.bug_id}")
    b = IRBuilder(module)
    warm = add_warm_worker(
        b, shape.helper_name, shape.profile.main_file, 100 + shape.base_line % 50
    )
    if shape.cold_code:
        add_cold_code(module, b, shape.profile)
    return module, b, warm.name


def _fence(b: IRBuilder) -> None:
    """A status-check branch right after an access (see module docs)."""
    with b.if_then(b.cmp("eq", b.i64(0), 1)):
        pass  # the error path never runs


def _rng(shape: BugShape, seed: int) -> random.Random:
    return random.Random(f"{shape.bug_id}:{seed}")


def _q(shape: BugShape) -> int:
    return shape.quantum_us * US


# ---------------------------------------------------------------------------
# Order violation, WR shape: use-after-free (pbzip2-style)
# ---------------------------------------------------------------------------


def build_use_after_free(shape: BugShape):
    """Main tears down a shared resource while a worker still reads it."""
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name,
        [(shape.target_field, I64), (shape.aux_field, I64), ("guard", LOCK)],
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("iters", I64), ("d_iter", I64)])
    i = b.alloca(I64, "i")
    b.call(warm, [b.i64(2)])
    with b.for_range(i, 0, b.param("iters")):
        b.delay(b.param("d_iter"))
        with b.at_location(f, L + 10):
            q = b.load(G, "q")
        h = b.fieldaddr(q, shape.target_field, "h")
        with b.at_location(f, L + 11):
            v = b.load(h, "v")  # R target: crashes once the resource is freed
        ok = b.cmp("ge", v, 0)
        with b.if_then(ok):
            pass
    b.ret()

    b.begin_function("main", VOID, [("d_run", I64), ("iters", I64), ("d_iter", I64)])
    res = b.malloc(S, name="res")
    b.store_field(7, res, shape.target_field)
    b.store_field(1, res, shape.aux_field)
    b.store(res, G)
    _fence(b)
    t = b.spawn(shape.worker_name, [b.param("iters"), b.param("d_iter")], "t")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 3) as jv:
        b.call(warm, [jv])
    b.delay(b.param("d_run"))
    q2 = b.load(G, "q2")
    with b.at_location(f, L + 40):
        b.free(q2)  # W target: the premature teardown
    _fence(b)
    b.join(t)
    b.ret()
    m.finalize()

    q = _q(shape)
    d_iter = int(q / 0.65)  # mean gap ~= 0.65 * d_iter = q
    iters = shape.iters

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        k = rng.randint(iters - 3, iters + 1)
        delta = rng.randint(int(0.10 * d_iter), int(0.60 * d_iter))
        return (k * d_iter + delta, iters, d_iter)

    truth = GroundTruth(
        kind="order-violation",
        pattern="WR",
        events=[EventLocator(f, L + 40, "W"), EventLocator(f, L + 11, "R")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Order violation, RW shape: read-before-init (transmission-style)
# ---------------------------------------------------------------------------


def build_read_before_init(shape: BugShape):
    """A handler thread consumes a shared handle before main publishes it."""
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("d_poll", I64), ("d_use", I64)])
    b.call(warm, [b.i64(3)])
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

    b.begin_function("main", VOID, [("d_init", I64), ("d_poll", I64), ("d_use", I64)])
    t = b.spawn(shape.worker_name, [b.param("d_poll"), b.param("d_use")], "t")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 3) as jv:
        b.call(warm, [jv])
    b.delay(b.param("d_init"))  # the slow initialization path
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
        d_init = 6 * q + rng.randint(-4 * US, 4 * US)
        k = rng.choice([-3, -2, -1, 1, 2])  # k < 0: the read wins the race
        d_poll = d_init + k * q
        return (d_init, max(d_poll, q), 5 * q)

    truth = GroundTruth(
        kind="order-violation",
        pattern="RW",
        events=[EventLocator(f, L + 10, "R"), EventLocator(f, L + 40, "W")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Order violation, WW shape: double free via check-then-act (httpd-21287-like)
# ---------------------------------------------------------------------------


def build_double_free(shape: BugShape):
    """Two threads race through an unsynchronized cleanup path."""
    m, b, warm = _new_app_module(shape)
    Buf = m.add_struct(f"{shape.struct_name}Buf", [("data", I64)])
    S = m.add_struct(
        shape.struct_name,
        [(shape.target_field, I64), ("payload", ptr(Buf))],  # target = cleaned flag
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("d_pre", I64), ("d_act", I64)])
    b.call(warm, [b.i64(1)])
    b.delay(b.param("d_pre"))
    s = b.load(G, "s")
    flag = b.fieldaddr(s, shape.target_field, "flag")
    with b.at_location(f, L + 10):
        cleaned = b.load(flag, "cleaned")  # R: the unguarded check
    not_cleaned = b.cmp("eq", cleaned, 0)
    with b.if_then(not_cleaned):
        b.delay(b.param("d_act"))  # the check-to-act window
        with b.at_location(f, L + 12):
            b.store(1, flag)  # W: mark cleaned
        _fence(b)
        pl = b.load_field(s, "payload", "pl")
        with b.at_location(f, L + 14):
            b.free(pl)  # the (possibly second) free
        _fence(b)
    b.ret()

    b.begin_function("main", VOID, [("d1", I64), ("d2", I64), ("d_act", I64)])
    s = b.malloc(S, name="conn")
    buf = b.malloc(Buf, name="buf")
    b.store_field(0, s, shape.target_field)
    b.store_field(buf, s, "payload")
    b.store(s, G)
    _fence(b)
    t1 = b.spawn(shape.worker_name, [b.param("d1"), b.param("d_act")], "t1")
    t2 = b.spawn(shape.worker_name, [b.param("d2"), b.param("d_act")], "t2")
    j = b.alloca(I64, "j")
    with b.for_range(j, 0, 2) as jv:
        b.call(warm, [jv])
    b.join(t1)
    b.join(t2)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        d1 = 2 * q + rng.randint(-3 * US, 3 * US)
        # offset between the two checks: 0.5q (racy) or >=3.5q (serialized)
        k = rng.choice([0, 0, 1, 1, 2])
        offset = 0.5 * q if k == 0 else (3.0 + k) * q
        return (d1, d1 + int(offset), 2 * q)

    truth = GroundTruth(
        kind="order-violation",
        pattern="WW",
        events=[EventLocator(f, L + 14, "W"), EventLocator(f, L + 14, "W")],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Atomicity violation, RWR: check-then-use of a clearable pointer (mysql-3596)
# ---------------------------------------------------------------------------


def build_atomicity_rwr(shape: BugShape):
    """Reader checks a shared pointer, rival clears it, reader dereferences."""
    m, b, warm = _new_app_module(shape)
    Buf = m.add_struct(f"{shape.struct_name}Info", [("c", I64)])
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, ptr(Buf)), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    # Shared maintenance routine: clear + re-install.  Called benignly by
    # main at startup and racily by the rival thread.
    b.begin_function(f"{shape.rival_name}_once", VOID, [("d_clear", I64)])
    s = b.load(G, "s")
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
    b.ret()

    b.begin_function(shape.worker_name, VOID, [("n", I64), ("d_win", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        ip = b.fieldaddr(s, shape.target_field, "ip")
        with b.at_location(f, L + 10):
            p1 = b.load(ip, "p1")  # R1: the check
        nz = b.cmp("ne", b.cast(p1, I64), 0)
        with b.if_then(nz):
            b.delay(b.param("d_win"))  # check-to-use window
            with b.at_location(f, L + 12):
                p2 = b.load(ip, "p2")  # R2: the use (re-read)
            _fence(b)
            cp = b.fieldaddr(p2, "c", "cp")
            with b.at_location(f, L + 13):
                v = b.load(cp, "v")  # crashes when the rival cleared in between
            pos = b.cmp("ge", v, 0)
            with b.if_then(pos):
                pass
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
    buf = b.malloc(Buf, name="info0")
    b.store_field(5, buf, "c")
    b.store_field(buf, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    b.call(f"{shape.rival_name}_once", [b.i64(2 * US)])  # benign maintenance pass
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
        # The re-install lands well past the check-to-use window, so an
        # in-window clear always manifests (no silent near-misses).
        d_clear = 3 * q
        d_per = 3 * cycle  # one clear per ~3 reader cycles
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
# Atomicity violation, WWR: prepare/overwrite/check (memcached-style)
# ---------------------------------------------------------------------------


def build_atomicity_wwr(shape: BugShape):
    """Owner stages a value and re-checks it; rival overwrites in between."""
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    # Shared update routine: the rival's store, also used benignly by main.
    b.begin_function(f"{shape.rival_name}_once", VOID, [])
    s = b.load(G, "s")
    sp = b.fieldaddr(s, shape.target_field, "sp")
    with b.at_location(f, L + 30):
        b.store(2, sp)  # W2: the intrusion
    _fence(b)
    b.ret()

    b.begin_function(shape.worker_name, VOID, [("n", I64), ("d_win", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        sp = b.fieldaddr(s, shape.target_field, "sp")
        with b.at_location(f, L + 10):
            b.store(1, sp)  # W1: stage
        _fence(b)
        b.delay(b.param("d_win"))
        with b.at_location(f, L + 12):
            r = b.load(sp, "r")  # R3: re-check
        ok = b.cmp("eq", r, 1)
        with b.at_location(f, L + 13):
            b.assert_(ok, f"{shape.target_field} clobbered mid-transaction")
        b.store(0, sp)  # benign reset
        _fence(b)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(shape.rival_name, VOID, [("n", I64), ("off", I64), ("d_per", I64)])
    b.call(warm, [b.i64(1)])
    b.delay(b.param("off"))
    k = b.alloca(I64, "k")
    with b.for_range(k, 0, b.param("n")):
        b.call(f"{shape.rival_name}_once", [])
        b.delay(b.param("d_per"))
    b.ret()

    b.begin_function(
        "main", VOID, [("n", I64), ("d_win", I64), ("d_idle", I64), ("off", I64), ("d_per", I64)]
    )
    s = b.malloc(S, name="st")
    b.store_field(0, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    b.call(f"{shape.rival_name}_once", [])  # benign startup write
    t1 = b.spawn(shape.worker_name, [b.param("n"), b.param("d_win"), b.param("d_idle")], "t1")
    t2 = b.spawn(shape.rival_name, [b.param("n"), b.param("off"), b.param("d_per")], "t2")
    b.join(t1)
    b.join(t2)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = shape.iters
        d_win = 2 * q
        d_idle = q
        cycle = d_win + d_idle
        slot = rng.choice([0.5, 1.5, 2.5])  # 2.5 = idle phase, benign
        k_cycle = rng.randint(0, n - 2)
        off = int(k_cycle * cycle + slot * q) + rng.randint(-3 * US, 3 * US)
        return (n, d_win, d_idle, off, int(2.7 * cycle))

    truth = GroundTruth(
        kind="atomicity-violation",
        pattern="WWR",
        events=[
            EventLocator(f, L + 10, "W"),
            EventLocator(f, L + 30, "W"),
            EventLocator(f, L + 12, "R"),
        ],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Atomicity violation, RWW: stale pointer restore (httpd-25520-like)
# ---------------------------------------------------------------------------


def build_atomicity_rww(shape: BugShape):
    """Rotator saves and restores a buffer pointer non-atomically while a
    recycler swaps it out: the restore resurrects a freed buffer."""
    m, b, warm = _new_app_module(shape)
    Buf = m.add_struct(f"{shape.struct_name}Buf", [("data", I64)])
    S = m.add_struct(shape.struct_name, [(shape.target_field, ptr(Buf)), ("len", I64)])
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    # Shared swap routine (free old + null + install fresh), called
    # benignly by main at startup and racily by the recycler.
    b.begin_function(f"{shape.rival_name}_once", VOID, [("d_gap", I64)])
    s = b.load(G, "s")
    bp = b.fieldaddr(s, shape.target_field, "bp")
    p = b.load(bp, "p")
    pz = b.cmp("ne", b.cast(p, I64), 0)
    with b.if_then(pz):
        with b.at_location(f, L + 30):
            b.free(p)  # retire the old buffer
        with b.at_location(f, L + 31):
            b.store(b.null(Buf), bp)  # W2: swap out
        _fence(b)
    b.delay(b.param("d_gap"))
    nb = b.malloc(Buf, name="nb")
    b.store_field(3, nb, "data")
    with b.at_location(f, L + 33):
        b.store(nb, bp)  # re-install
    _fence(b)
    b.ret()

    b.begin_function(
        shape.worker_name, VOID,
        [("n", I64), ("d_win", I64), ("d_use", I64), ("d_idle", I64)],
    )
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        bp = b.fieldaddr(s, shape.target_field, "bp")
        with b.at_location(f, L + 10):
            old = b.load(bp, "old")  # R1: save
        nz = b.cmp("ne", b.cast(old, I64), 0)
        with b.if_then(nz):
            b.delay(b.param("d_win"))
            with b.at_location(f, L + 12):
                b.store(old, bp)  # W3: restore (stale if swapped meanwhile)
            _fence(b)
            b.delay(b.param("d_use"))
            with b.at_location(f, L + 14):
                cur = b.load(bp, "cur")  # guarded re-read
            cnz = b.cmp("ne", b.cast(cur, I64), 0)
            with b.if_then(cnz):
                dp = b.fieldaddr(cur, "data", "dp")
                with b.at_location(f, L + 16):
                    v = b.load(dp, "v")  # crashes on a resurrected buffer
                pos = b.cmp("ge", v, 0)
                with b.if_then(pos):
                    pass
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(
        shape.rival_name, VOID, [("n", I64), ("off", I64), ("d_gap", I64), ("d_per", I64)]
    )
    b.call(warm, [b.i64(1)])
    b.delay(b.param("off"))
    k = b.alloca(I64, "k")
    with b.for_range(k, 0, b.param("n")):
        b.call(f"{shape.rival_name}_once", [b.param("d_gap")])
        b.delay(b.param("d_per"))
    b.ret()

    b.begin_function(
        "main",
        VOID,
        [("n", I64), ("d_win", I64), ("d_use", I64), ("d_idle", I64), ("off", I64), ("d_gap", I64), ("d_per", I64)],
    )
    s = b.malloc(S, name="st")
    buf = b.malloc(Buf, name="buf0")
    b.store_field(1, buf, "data")
    b.store_field(buf, s, shape.target_field)
    b.store_field(0, s, "len")
    b.store(s, G)
    _fence(b)
    b.call(f"{shape.rival_name}_once", [b.i64(2 * US)])  # benign startup swap
    t1 = b.spawn(
        shape.worker_name,
        [b.param("n"), b.param("d_win"), b.param("d_use"), b.param("d_idle")],
        "t1",
    )
    t2 = b.spawn(
        shape.rival_name,
        [b.param("n"), b.param("off"), b.param("d_gap"), b.param("d_per")],
        "t2",
    )
    b.join(t1)
    b.join(t2)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = shape.iters
        d_win = 2 * q
        d_use = q
        d_idle = q
        cycle = d_win + d_use + d_idle  # 4q
        # swap lands inside the save/restore window (fails), inside the
        # use gap (benign satellite), or in idle (fully benign)
        slot = rng.choice([0.5, 1.5, 2.4, 3.5])
        k_cycle = rng.randint(0, n - 2)
        off = int(k_cycle * cycle + slot * q) + rng.randint(-3 * US, 3 * US)
        # d_gap (swap-out to re-install) spans past the worker's re-read,
        # so a failing restore is observed before the fresh buffer lands.
        return (n, d_win, d_use, d_idle, off, 3 * q, 3 * cycle)

    truth = GroundTruth(
        kind="atomicity-violation",
        pattern="RWW",
        events=[
            EventLocator(f, L + 10, "R"),
            EventLocator(f, L + 31, "W"),
            EventLocator(f, L + 12, "W"),
        ],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Atomicity violation, WRW: torn write observed mid-update (aget-style)
# ---------------------------------------------------------------------------


def build_atomicity_wrw(shape: BugShape):
    """Writer updates a value in two steps; observer snapshots in between."""
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name, [(shape.target_field, I64), (shape.aux_field, I64)]
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file
    PARTIAL = 1111
    FINAL = 2222

    b.begin_function(shape.worker_name, VOID, [("n", I64), ("d_win", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        vp = b.fieldaddr(s, shape.target_field, "vp")
        with b.at_location(f, L + 10):
            b.store(PARTIAL, vp)  # W1: first half of the update
        _fence(b)
        b.delay(b.param("d_win"))
        with b.at_location(f, L + 12):
            b.store(FINAL, vp)  # W3: second half
        _fence(b)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(shape.rival_name, VOID, [("n", I64), ("off", I64), ("d_chk", I64), ("d_per", I64)])
    b.call(warm, [b.i64(1)])
    b.delay(b.param("off"))
    k = b.alloca(I64, "k")
    with b.for_range(k, 0, b.param("n")):
        s = b.load(G, "s")
        vp = b.fieldaddr(s, shape.target_field, "vp")
        with b.at_location(f, L + 30):
            r = b.load(vp, "snap")  # R2: the torn snapshot
        torn = b.cmp("eq", r, PARTIAL)
        whole = b.cmp("eq", torn, 0)
        with b.if_then(whole):
            pass  # fence: bounds the read
        b.delay(b.param("d_chk"))  # checkpoint write happens here
        with b.at_location(f, L + 33):
            b.assert_(whole, "checkpointed a torn value")
        b.delay(b.param("d_per"))
    b.ret()

    b.begin_function(
        "main", VOID, [("n", I64), ("d_win", I64), ("d_idle", I64), ("off", I64), ("d_chk", I64), ("d_per", I64)]
    )
    s = b.malloc(S, name="st")
    b.store_field(FINAL, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    t1 = b.spawn(shape.worker_name, [b.param("n"), b.param("d_win"), b.param("d_idle")], "t1")
    t2 = b.spawn(shape.rival_name, [b.param("n"), b.param("off"), b.param("d_chk"), b.param("d_per")], "t2")
    b.join(t1)
    b.join(t2)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = shape.iters
        d_win = 2 * q
        d_idle = q
        cycle = d_win + d_idle
        slot = rng.choice([0.5, 1.5, 2.5])  # 2.5 = idle, benign
        k_cycle = rng.randint(0, n - 2)
        off = int(k_cycle * cycle + slot * q) + rng.randint(-3 * US, 3 * US)
        return (n, d_win, d_idle, off, 3 * q, int(2.6 * cycle))

    truth = GroundTruth(
        kind="atomicity-violation",
        pattern="WRW",
        events=[
            EventLocator(f, L + 10, "W"),
            EventLocator(f, L + 30, "R"),
            EventLocator(f, L + 12, "W"),
        ],
    )
    return m, truth, workload


# ---------------------------------------------------------------------------
# Deadlock: AB-BA lock ordering (sqlite-1672-style)
# ---------------------------------------------------------------------------


def build_ab_ba_deadlock(shape: BugShape):
    """Two subsystems acquire the same two locks in opposite orders."""
    m, b, warm = _new_app_module(shape)
    S = m.add_struct(
        shape.struct_name,
        [("m_a", LOCK), ("m_b", LOCK), (shape.target_field, I64), (shape.aux_field, I64)],
    )
    G = m.add_global(shape.global_name, ptr(S))
    L = shape.base_line
    f = shape.file

    b.begin_function(shape.worker_name, VOID, [("n", I64), ("d_hold", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(2)])
    i = b.alloca(I64, "i")
    with b.for_range(i, 0, b.param("n")):
        s = b.load(G, "s")
        la = b.fieldaddr(s, "m_a", "la")
        lb = b.fieldaddr(s, "m_b", "lb")
        with b.at_location(f, L + 10):
            b.lock(la)  # hold A
        _fence(b)
        b.delay(b.param("d_hold"))
        with b.at_location(f, L + 12):
            b.lock(lb)  # then attempt B
        _fence(b)
        tp = b.fieldaddr(s, shape.target_field, "tp")
        b.store(b.add(b.load(tp), 1), tp)
        b.unlock(lb)
        b.unlock(la)
        _fence(b)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(shape.rival_name, VOID, [("n", I64), ("off", I64), ("d_hold", I64), ("d_idle", I64)])
    b.call(warm, [b.i64(1)])
    b.delay(b.param("off"))
    k = b.alloca(I64, "k")
    with b.for_range(k, 0, b.param("n")):
        s = b.load(G, "s")
        la = b.fieldaddr(s, "m_a", "la")
        lb = b.fieldaddr(s, "m_b", "lb")
        with b.at_location(f, L + 30):
            b.lock(lb)  # hold B
        _fence(b)
        b.delay(b.param("d_hold"))
        with b.at_location(f, L + 32):
            b.lock(la)  # then attempt A -- opposite order
        _fence(b)
        ap = b.fieldaddr(s, shape.aux_field, "ap")
        b.store(b.add(b.load(ap), 1), ap)
        b.unlock(la)
        b.unlock(lb)
        _fence(b)
        b.delay(b.param("d_idle"))
    b.ret()

    b.begin_function(
        "main", VOID, [("n", I64), ("d_hold", I64), ("d_idle", I64), ("off", I64)]
    )
    s = b.malloc(S, name="db")
    la = b.fieldaddr(s, "m_a", "la")
    lb = b.fieldaddr(s, "m_b", "lb")
    b.lock_init(la)
    b.lock_init(lb)
    b.store_field(0, s, shape.target_field)
    b.store_field(0, s, shape.aux_field)
    b.store(s, G)
    _fence(b)
    t1 = b.spawn(shape.worker_name, [b.param("n"), b.param("d_hold"), b.param("d_idle")], "t1")
    t2 = b.spawn(shape.rival_name, [b.param("n"), b.param("off"), b.param("d_hold"), b.param("d_idle")], "t2")
    b.join(t1)
    b.join(t2)
    b.ret()
    m.finalize()

    q = _q(shape)

    def workload(seed: int) -> tuple:
        rng = _rng(shape, seed)
        n = shape.iters
        d_hold = 2 * q  # hold the first lock for 2q before the second
        d_idle = 3 * q
        cycle = d_hold + d_idle
        # rival's first-lock time lands 0.5q/1.5q into a worker hold
        # (deadlock) or into the idle phase (benign)
        slot = rng.choice([0.5, 1.5, 3.0, 4.0])
        k_cycle = rng.randint(0, n - 2)
        off = int(k_cycle * cycle + slot * q) + rng.randint(-3 * US, 3 * US)
        return (n, d_hold, d_idle, off)

    truth = GroundTruth(
        kind="deadlock",
        pattern="deadlock",
        events=[
            EventLocator(f, L + 10, "L"),  # hold A (worker)
            EventLocator(f, L + 30, "L"),  # hold B (rival)
            EventLocator(f, L + 12, "L"),  # attempt B (worker)
            EventLocator(f, L + 32, "L"),  # attempt A (rival)
        ],
    )
    return m, truth, workload


# The ground-truth kind each template's bugs have: a constant of the
# template, so the registry can filter on it without building a module
# (_TemplatedBug checks it against the truth a template call returns).
TEMPLATE_KINDS = {
    "WR": "order-violation",
    "RW": "order-violation",
    "WW": "order-violation",
    "RWR": "atomicity-violation",
    "WWR": "atomicity-violation",
    "RWW": "atomicity-violation",
    "WRW": "atomicity-violation",
    "deadlock": "deadlock",
}

TEMPLATES = {
    "WR": build_use_after_free,
    "RW": build_read_before_init,
    "WW": build_double_free,
    "RWR": build_atomicity_rwr,
    "WWR": build_atomicity_wwr,
    "RWW": build_atomicity_rww,
    "WRW": build_atomicity_wrw,
    "deadlock": build_ab_ba_deadlock,
}
