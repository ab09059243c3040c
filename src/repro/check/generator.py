"""Seeded generators of randomized check inputs.

Every generator is a pure function of ``(random.Random, params)``: the
same seed and knobs regenerate the same artifact, which is what makes
shrinking and replay possible.  Four families:

* :func:`gen_bug` — a randomized IR program with an injected bug
  pattern (order violation / atomicity violation / deadlock) and its
  known ground truth, built from the corpus bug templates with a
  randomized app vocabulary, timing quantum, and size.
* :func:`gen_thread_traces` / :func:`gen_anchor` — synthetic decoded
  per-thread traces (desynced threads, zero-width instants, shared
  uids) plus an anchor position, for trace-processing cases.
* :func:`gen_observations` — randomized step-7 evidence: pattern
  signatures with varying ranks, dynamics, and failing/success spread.
* :func:`gen_constraint_system` — a random Andersen/Steensgaard input,
  either purely synthetic or derived from a generated program.
"""

from __future__ import annotations

import random

from repro.core.constraints import AbstractObject, ConstraintSystem
from repro.core.patterns import PatternInstance, PatternSignature
from repro.core.statistics import ExecutionObservation
from repro.corpus.appkit import AppProfile
from repro.corpus.templates import TEMPLATES, BugShape
from repro.corpus.templates_sync import PRIMITIVE_TEMPLATES
from repro.pt.decoder import DynamicInstruction, ThreadTrace

_STRUCTS = ["Conn", "Txn", "Pool", "Buf", "Node", "Job", "Chan", "Slot"]
# "len" is reserved: the RWW template adds its own ("len", I64) field
# to the target struct, so a vocabulary collision would build an
# invalid module (duplicate field)
_FIELDS = ["data", "state", "next", "count", "refs", "owner", "head", "gen"]
_GLOBALS = ["g_conn", "g_pool", "g_ring", "g_tab", "g_cfg", "g_log"]
_FUNCS = ["worker", "flusher", "reaper", "reader", "committer", "scanner"]
_APPS = ["relay", "vault", "mesh", "forge", "lathe", "prism", "drift", "ember"]
_KINDS = tuple(TEMPLATES)  # WR RW WW RWR WWR RWW WRW deadlock
_ALL_TEMPLATES = {**TEMPLATES, **PRIMITIVE_TEMPLATES}

# A primitive-family filter rides in ``CheckCase.params`` as a bitmask
# (every knob is an int so the shrinker can descend on it); 0 means
# "no filter".
PRIMITIVE_BITS = {
    "condvar": 1, "rwlock": 2, "sema": 4, "barrier": 8, "mutex": 16,
}
_KINDS_BY_PRIMITIVE = {
    "condvar": ("lost-wakeup",),
    "rwlock": ("rw-race",),
    "sema": ("sema-underflow",),
    "barrier": ("barrier-phase",),
    # the classic two-lock deadlock and the three-lock chain both
    # exercise plain mutexes
    "mutex": ("deadlock", "lock-chain"),
}


def primitives_mask(names) -> int:
    """Encode primitive names (``condvar``, ``rwlock``, ``sema``,
    ``barrier``, ``mutex``) as the params bitmask."""
    mask = 0
    for name in names:
        try:
            mask |= PRIMITIVE_BITS[name]
        except KeyError:
            raise ValueError(
                f"unknown primitive {name!r}; available: "
                f"{', '.join(PRIMITIVE_BITS)}"
            ) from None
    return mask


def primitive_names(mask: int) -> tuple[str, ...]:
    """Decode the bitmask; 0 selects every primitive family."""
    if not mask:
        return tuple(PRIMITIVE_BITS)
    return tuple(n for n, bit in PRIMITIVE_BITS.items() if mask & bit)


def kinds_for_primitives(mask: int) -> tuple[str, ...]:
    """Template kinds for the bug-generating stages: the classic corpus
    patterns when no filter is set, else the table-4 classes of the
    selected primitive families."""
    if not mask:
        return _KINDS
    kinds: list[str] = []
    for name, bit in PRIMITIVE_BITS.items():
        if mask & bit:
            kinds.extend(
                k for k in _KINDS_BY_PRIMITIVE[name] if k not in kinds
            )
    return tuple(kinds)


def gen_shape(rng: random.Random, params: dict[str, int]) -> BugShape:
    """A randomized app vocabulary + timing for one templated bug."""
    n = rng.randrange(10_000)
    app = rng.choice(_APPS)
    profile = AppProfile(
        name=f"{app}{n}",
        language=rng.choice(["C/C++", "Java"]),
        main_file=f"src/{app}.c",
        kloc=max(1, params.get("kloc", 2)),
        seed=rng.randrange(1 << 30),
    )
    fields = rng.sample(_FIELDS, 2)
    funcs = rng.sample(_FUNCS, 3)
    return BugShape(
        profile=profile,
        bug_id=f"check-{n}",
        file=f"src/{app}_{rng.choice(['core', 'io', 'sched'])}.c",
        struct_name=rng.choice(_STRUCTS),
        target_field=fields[0],
        aux_field=fields[1],
        global_name=rng.choice(_GLOBALS),
        worker_name=funcs[0],
        rival_name=funcs[1],
        helper_name=funcs[2],
        base_line=rng.randrange(20, 400),
        # the corpus regime: dT scales of a few hundred us, randomized
        # in [q, 2q) so every case exercises a different timing ratio
        quantum_us=(lambda q: q + rng.randrange(q))(
            max(1, params.get("quantum", 300))
        ),
        iters=max(3, params.get("iters", 6)),
        cold_code=bool(params.get("cold", 0)),
    )


def gen_bug(
    rng: random.Random, params: dict[str, int], kinds: tuple[str, ...] = _KINDS
):
    """Build one randomized bug: ``(module, ground_truth, workload, kind)``."""
    kind = kinds[rng.randrange(len(kinds))]
    shape = gen_shape(rng, params)
    module, truth, workload = _ALL_TEMPLATES[kind](shape)
    return module, truth, workload, kind


# -- synthetic decoded traces ------------------------------------------------


def gen_thread_traces(
    rng: random.Random, params: dict[str, int]
) -> dict[int, ThreadTrace]:
    """Synthetic per-thread decoded traces sharing a uid pool.

    Mimics the decoder's output shape: run records of one or more uids
    that share one interval, drawn from a pool of run tuples that runs
    share by identity (as the walk table's are) and cut short where a
    thread's trace ends (as the stop uid splits a run); per-thread seq
    order, monotone ``t_lo``, intervals of varying width (including the
    zero-width instants timing-packet-adjacent instructions get), and
    some threads fully desynced (no PSB found: nothing decoded).
    """
    threads = max(1, params.get("threads", 4))
    events = max(1, params.get("events", 12))
    uid_pool = [100 + i for i in range(max(1, params.get("uids", 6)))]
    desync_pct = params.get("desync_pct", 30)
    zero_pct = params.get("zero_width_pct", 10)
    run_pool = [
        tuple(rng.sample(uid_pool, rng.randint(1, min(3, len(uid_pool)))))
        for _ in range(max(1, len(uid_pool) // 2))
    ]
    traces: dict[int, ThreadTrace] = {}
    for tid in range(1, threads + 1):
        tt = ThreadTrace(tid)
        tt.desync = rng.randrange(100) < desync_pct
        t = rng.randrange(0, 2_000)
        seq = 0
        while seq < events:
            t += rng.randrange(1, 4_000)
            width = 0 if rng.randrange(100) < zero_pct else rng.randrange(
                1, 6_000
            )
            uids = rng.choice(run_pool)[: events - seq]
            tt.runs.append((uids, t, t + width, seq))
            tt.executed_uids.update(uids)
            tt.end_time = max(tt.end_time, t + width)
            seq += len(uids)
        for time in sorted(rng.randrange(0, tt.end_time + 1) for _ in range(3)):
            tt.timing.add(time)
        traces[tid] = tt
    return traces


def gen_anchor(
    rng: random.Random,
    traces: dict[int, ThreadTrace],
    params: dict[str, int],
) -> tuple[int, int | None, int | None]:
    """An anchor position: sometimes a decoded uid (whose bucket the
    anchor must merge into in order), sometimes a fresh PC; the thread
    may be decoded, desynced, fresh, or left for ``_position_thread``;
    the timestamp lands anywhere in the window — often *before* decoded
    instances of the same uid."""
    decoded_uids = sorted(
        {uid for tt in traces.values() if not tt.desync
         for uid in tt.executed_uids}
    )
    fresh_pct = params.get("anchor_fresh_pct", 30)
    if decoded_uids and rng.randrange(100) >= fresh_pct:
        uid = rng.choice(decoded_uids)
    else:
        uid = 9_000 + rng.randrange(100)
    roll = rng.randrange(100)
    tid: int | None
    if roll < 60:
        tid = rng.choice(sorted(traces))  # any thread, desynced included
    elif roll < 80:
        tid = 90 + rng.randrange(8)  # a thread the decoder never saw
    else:
        tid = None
    end = max((tt.end_time for tt in traces.values()), default=1)
    time = rng.randrange(0, end + 1) if rng.randrange(100) < 85 else None
    return uid, tid, time


# -- step-7 evidence ---------------------------------------------------------

_PAIR_KINDS = ("WR", "RW", "WW")
_TRIPLE_KINDS = ("RWR", "WWR", "RWW", "WRW")


def gen_signatures(
    rng: random.Random, count: int
) -> list[PatternSignature]:
    sigs: list[PatternSignature] = []
    for i in range(count):
        base = 200 + 10 * i
        if rng.randrange(100) < 60:
            kind = rng.choice(_PAIR_KINDS)
            events = ((base, kind[0]), (base + 1, kind[1]))
            shape = "ab"
        else:
            kind = rng.choice(_TRIPLE_KINDS)
            events = (
                (base, kind[0]), (base + 1, kind[1]), (base + 2, kind[2])
            )
            shape = "aba"
        sigs.append(PatternSignature(kind, events, shape))
    return sigs


def _gen_instance(
    rng: random.Random, sig: PatternSignature, max_rank: int, dynamics_pct: int
) -> PatternInstance:
    dynamics = []
    t = rng.randrange(0, 5_000)
    for i, (uid, _role) in enumerate(sig.events):
        if rng.randrange(100) < dynamics_pct:
            t += rng.randrange(1, 3_000)
            dynamics.append(
                DynamicInstruction(uid, 1 + i % 2, i, t, t + rng.randrange(500))
            )
        else:
            dynamics.append(None)
    return PatternInstance(sig, tuple(dynamics), 1 + rng.randrange(max_rank))


def gen_observations(
    rng: random.Random, params: dict[str, int]
) -> list[ExecutionObservation]:
    """Randomized step-7 evidence: each observation exhibits a random
    subset of a shared signature pool, with per-observation instance
    ranks (1..max_rank) and partially-populated dynamics."""
    total = max(1, params.get("observations", 8))
    failing = min(total, max(0, params.get("failing", 3)))
    sigs = gen_signatures(rng, max(1, params.get("sigs", 5)))
    max_rank = max(1, params.get("max_rank", 5))
    dynamics_pct = params.get("dynamics_pct", 50)
    out: list[ExecutionObservation] = []
    for i in range(total):
        is_failing = i < failing
        obs = ExecutionObservation(
            label=("failure" if is_failing else "success") + f"-{i}",
            failing=is_failing,
        )
        for sig in sigs:
            if rng.randrange(100) < 70:
                obs.signatures.add(sig)
                obs.instances[sig] = _gen_instance(
                    rng, sig, max_rank, dynamics_pct
                )
        out.append(obs)
    return out


# -- constraint systems ------------------------------------------------------


def gen_constraint_system(
    rng: random.Random, params: dict[str, int]
) -> ConstraintSystem:
    """A random inclusion-constraint system over opaque tokens.

    Exercises the solvers' graph machinery (cycles included — copies
    are sampled with replacement, so ``a = b; b = a`` chains appear)
    without needing an executable program.
    """
    n_vars = max(2, params.get("vars", 12))
    n_objs = max(1, params.get("objs", 6))
    variables = [f"v{i}" for i in range(n_vars)]
    objects = [
        AbstractObject(rng.choice(["heap", "stack", "global"]), 500 + i, f"o{i}")
        for i in range(n_objs)
    ]
    system = ConstraintSystem()
    for obj in objects:
        system.objects[obj.uid] = obj
        system.add_addr_of(rng.choice(variables), obj)
    for _ in range(params.get("copies", 10)):
        system.copies.append(
            (rng.choice(variables), rng.choice(variables))
        )
    for _ in range(params.get("loads", 6)):
        system.loads.append((rng.choice(variables), rng.choice(variables)))
    for _ in range(params.get("stores", 6)):
        system.stores.append((rng.choice(variables), rng.choice(variables)))
    return system
