"""The bug corpus: 67 concurrency bugs across 17 application models.

Importing :mod:`repro.corpus` (or calling any registry accessor) loads
every app module, which registers its bugs.  See ``registry.py`` for
the spec format, ``templates.py`` for the shared-memory failure
mechanics and ``templates_sync.py`` for the condvar/rwlock/semaphore/
barrier classes.

The registry query surface is public API:

* :func:`bugs` — filter by kind, primitives, table or system;
* :func:`register` / :func:`make_spec` — add bugs (out-of-tree corpora
  register through the same path the in-tree apps use);
* :func:`all_bugs`, :func:`bug`, :func:`snorlax_bugs` — stable lookups.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.corpus.appkit import AppProfile, profile
from repro.corpus.registry import (
    BugSpec,
    EventLocator,
    GroundTruth,
    all_bugs,
    bug,
    bugs,
    bugs_by_system,
    register,
    snorlax_bugs,
    systems,
    table_bugs,
)
from repro.corpus.scenarios import (
    SCENARIOS,
    async_pipeline,
    db_pool,
    producer_consumer,
)
from repro.corpus.templates import TEMPLATE_KINDS, TEMPLATES, BugShape
from repro.corpus.templates_sync import (
    PRIMITIVE_TEMPLATE_KINDS,
    PRIMITIVE_TEMPLATES,
    TEMPLATE_PRIMITIVES,
)
from repro.errors import CorpusError

# Every template the spec factory can instantiate.  ``TEMPLATES`` keeps
# only the original shared-memory/mutex patterns (the check generator's
# kind vocabulary is frozen on it); the sync-primitive classes live in
# their own namespace and are merged here.
ALL_TEMPLATES = {**TEMPLATES, **PRIMITIVE_TEMPLATES}
ALL_TEMPLATE_KINDS = {**TEMPLATE_KINDS, **PRIMITIVE_TEMPLATE_KINDS}


class _TemplatedBug:
    """Instantiates a template on demand; keeps build/workload/truth in sync.

    A template call returns ``(module, truth, workload)``.  The first
    call, whichever accessor makes it, keeps ``(truth, workload)``; the
    module goes to the caller (or is dropped) and is never held here,
    so a process holds each corpus module only where a caller keeps it
    (the registry's :meth:`BugSpec.module` cache, a benchmark input).
    Neither kept value references the module: the workload closure
    captures only the shape and constants derived from it.  The truth's
    kind is known before any call (``ALL_TEMPLATE_KINDS``) and checked
    against the truth the first call returns.
    """

    def __init__(self, shape: BugShape, pattern: str):
        self.shape = shape
        self.pattern = pattern
        self.kind = ALL_TEMPLATE_KINDS[pattern]
        self._kept: tuple[GroundTruth, Callable[[int], tuple]] | None = None
        self._lock = threading.Lock()

    def _instantiate(self):
        module, truth, workload = ALL_TEMPLATES[self.pattern](self.shape)
        if truth.kind != self.kind:
            raise CorpusError(
                f"template {self.pattern!r} built a {truth.kind} truth, "
                f"but its kind is {self.kind}"
            )
        if self._kept is None:
            self._kept = (truth, workload)
        return module

    def _ensure(self) -> tuple[GroundTruth, Callable[[int], tuple]]:
        if self._kept is None:
            with self._lock:
                if self._kept is None:
                    self._instantiate()
        return self._kept

    def build_module(self):
        # A fresh module every call (templates are deterministic, and
        # callers such as repro.validate edit what they get); the first
        # call also serves the workload and ground truth.
        with self._lock:
            return self._instantiate()

    @property
    def ground_truth(self) -> GroundTruth:
        return self._ensure()[0]

    def workload(self, seed: int) -> tuple:
        return self._ensure()[1](seed)


def make_spec(
    system: str,
    bug_id: str,
    table: int,
    pattern: str,
    quantum_us: int,
    description: str,
    *,
    file: str,
    struct_name: str,
    target_field: str,
    aux_field: str,
    global_name: str,
    worker_name: str,
    rival_name: str,
    helper_name: str,
    base_line: int,
    snorlax_eval: bool = False,
    iters: int = 6,
    primitives: tuple[str, ...] | None = None,
) -> BugSpec:
    """Register one templated bug with app-specific vocabulary."""
    shape = BugShape(
        profile=profile(system),
        bug_id=bug_id,
        file=file,
        struct_name=struct_name,
        target_field=target_field,
        aux_field=aux_field,
        global_name=global_name,
        worker_name=worker_name,
        rival_name=rival_name,
        helper_name=helper_name,
        base_line=base_line,
        quantum_us=quantum_us,
        iters=iters,
    )
    templated = _TemplatedBug(shape, pattern)
    if primitives is None:
        primitives = TEMPLATE_PRIMITIVES.get(pattern, ())
        if pattern == "deadlock":
            primitives = ("mutex",)
    spec = BugSpec(
        bug_id=bug_id,
        system=system,
        language=profile(system).language,
        table=table,
        description=description,
        builder=templated.build_module,
        workload=templated.workload,
        kind=templated.kind,
        truth_source=lambda: templated.ground_truth,
        target_dt_us=_nominal_dt(pattern, quantum_us),
        snorlax_eval=snorlax_eval,
        primitives=tuple(primitives),
    )
    return register(spec)


def _nominal_dt(pattern: str, quantum_us: int) -> tuple[float, ...]:
    """The intended mean gap(s) between target events, in us."""
    if pattern in ("WR", "WW", "deadlock", "lost-wakeup", "lock-chain"):
        return (float(quantum_us),)
    if pattern in ("RW", "sema-underflow", "barrier-phase"):
        return (2.0 * quantum_us,)
    return (float(quantum_us), float(quantum_us))  # atomicity: dT1, dT2


__all__ = [
    "AppProfile",
    "profile",
    "BugSpec",
    "EventLocator",
    "GroundTruth",
    "all_bugs",
    "bug",
    "bugs",
    "bugs_by_system",
    "register",
    "snorlax_bugs",
    "systems",
    "table_bugs",
    "TEMPLATES",
    "PRIMITIVE_TEMPLATES",
    "ALL_TEMPLATES",
    "ALL_TEMPLATE_KINDS",
    "BugShape",
    "make_spec",
    "SCENARIOS",
    "producer_consumer",
    "db_pool",
    "async_pipeline",
]
