"""The bug corpus registry: 67 concurrency bugs in 17 systems.

Each :class:`BugSpec` packages everything an experiment needs: a builder
for the application model (an IR module shaped like the real system), a
seed-indexed workload generator, the developer-verified ground truth
(the ordered target events, by source location), and which paper table
the bug belongs to.

The registry mirrors the paper's corpus:

* Tables 1-3 (the coarse-interleaving-hypothesis study) cover all 54
  bugs across MySQL, Apache httpd, memcached, SQLite, Transmission,
  pbzip2, aget, JDK, Apache Derby, Apache Groovy, DBCP, Log4j and
  Apache Lucene.
* The Snorlax evaluation (§6) uses the 11 C/C++ bugs in 7 systems that
  Gist was also evaluated on (``snorlax_eval=True``).
* Table 4 is this reproduction's extension corpus: 13 bugs over richer
  primitives (condvars, rwlocks, semaphores, barriers, 3-lock chains)
  in nginx, redis, postgres and zookeeper, queryable via :func:`bugs`
  with ``primitives=...``.

The paper's per-bug numeric table cells were not recoverable from the
text (images); per-bug dT envelopes are synthesized inside the summary
statistics the text states (min 91 us; averages 154-3505 us), recorded
here as ``target_dt_us`` for documentation and bench assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import CorpusError
from repro.ir.instructions import Instruction
from repro.ir.module import Module


@dataclass(frozen=True)
class EventLocator:
    """A target event named the way a developer would: file, line, role."""

    file: str
    line: int
    role: str  # "R" | "W" | "L"


@dataclass
class GroundTruth:
    """The manually verified root cause: target events in failure order."""

    kind: str  # "order-violation" | "atomicity-violation" | "deadlock"
    pattern: str  # "WR" | "RW" | "RWR" | "WWR" | "RWW" | "WRW" | "WW" | "deadlock"
    events: list[EventLocator]

    def resolve(self, module: Module) -> list[int]:
        """Map the event locations to instruction uids in a built module."""
        uids: list[int] = []
        for ev in self.events:
            uids.append(_find_instruction(module, ev).uid)
        return uids


def _find_instruction(module: Module, ev: EventLocator) -> Instruction:
    matches = [
        i
        for i in module.instructions()
        if i.loc is not None and i.loc.file == ev.file and i.loc.line == ev.line
    ]
    if not matches:
        raise CorpusError(f"no instruction at {ev.file}:{ev.line}")
    if len(matches) > 1:
        # Prefer the instruction whose opcode matches the role.
        want = {
            "R": ("load", "condwait", "semwait", "barrierwait"),
            "W": ("store", "free", "condnotify", "sempost"),
            "L": ("lock", "rwrdlock", "rwwrlock"),
        }[ev.role]
        narrowed = [i for i in matches if i.opcode in want]
        if len(narrowed) == 1:
            return narrowed[0]
        raise CorpusError(
            f"ambiguous target event at {ev.file}:{ev.line} "
            f"({len(matches)} instructions)"
        )
    return matches[0]


@dataclass
class BugSpec:
    bug_id: str  # e.g. "mysql-3596", "pbzip2-n/a"
    system: str
    language: str  # "C/C++" | "Java"
    table: int  # paper table: 1 deadlocks, 2 order violations, 3 atomicity
    description: str
    builder: Callable[[], Module]
    workload: Callable[[int], tuple]
    # the ground truth's kind ("order-violation", "atomicity-violation",
    # "deadlock"): a constant of the bug's template, so reading it
    # resolves no truth and builds no module
    kind: str
    # GroundTruth, or a zero-arg factory for it (keeps registration lazy:
    # resolving the truth may require building the app module).
    truth_source: "GroundTruth | Callable[[], GroundTruth]" = None  # type: ignore[assignment]
    target_dt_us: tuple[float, ...] = ()  # nominal dT (one gap) / dT1,dT2 (two)
    snorlax_eval: bool = False
    entry: str = "main"
    # Synchronization primitives the bug's mechanics exercise, e.g.
    # ("mutex",), ("condvar",), ("rwlock",).  Empty means the race is on
    # plain shared memory with no primitive involved in the bug itself.
    primitives: tuple[str, ...] = ()
    _module: Module | None = field(default=None, repr=False)
    _truth: GroundTruth | None = field(default=None, repr=False)

    @property
    def ground_truth(self) -> GroundTruth:
        if self._truth is None:
            source = self.truth_source
            self._truth = source() if callable(source) else source
        return self._truth

    def module(self) -> Module:
        if self._module is None:
            self._module = self.builder()
            if not self._module.finalized:
                self._module.finalize()
        return self._module

    def fresh_module(self) -> Module:
        """An uncached build (for benches that time module analysis)."""
        m = self.builder()
        if not m.finalized:
            m.finalize()
        return m

    def target_uids(self) -> list[int]:
        return self.ground_truth.resolve(self.module())


_REGISTRY: dict[str, BugSpec] = {}


def register(spec: BugSpec) -> BugSpec:
    if spec.bug_id in _REGISTRY:
        raise CorpusError(f"duplicate bug id {spec.bug_id}")
    _REGISTRY[spec.bug_id] = spec
    return spec


def _ensure_loaded() -> None:
    # App modules self-register on import.
    import repro.corpus.apps  # noqa: F401


def all_bugs() -> list[BugSpec]:
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda s: (s.table, s.system, s.bug_id))


def bug(bug_id: str) -> BugSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[bug_id]
    except KeyError:
        raise CorpusError(f"unknown bug {bug_id!r}") from None


def bugs(
    kind: str | None = None,
    primitives: "Iterable[str] | str | None" = None,
    table: int | None = None,
    system: str | None = None,
) -> list[BugSpec]:
    """Query the corpus.  All filters are conjunctive; None means "any".

    ``kind`` matches :attr:`BugSpec.kind` (``"order-violation"``,
    ``"atomicity-violation"``, ``"deadlock"``).  ``primitives`` selects
    bugs exercising *any* of the named primitives (``"mutex"``,
    ``"condvar"``, ``"rwlock"``, ``"sema"``, ``"barrier"``); a single
    string is accepted as shorthand for a one-element set.
    """
    if isinstance(primitives, str):
        primitives = (primitives,)
    wanted = frozenset(primitives) if primitives is not None else None
    out = []
    for s in all_bugs():
        if wanted is not None and not (wanted & frozenset(s.primitives)):
            continue
        if table is not None and s.table != table:
            continue
        if system is not None and s.system != system:
            continue
        if kind is not None and s.kind != kind:
            continue
        out.append(s)
    return out


def bugs_by_system(system: str) -> list[BugSpec]:
    return [s for s in all_bugs() if s.system == system]


def snorlax_bugs() -> list[BugSpec]:
    """The 11 C/C++ bugs of the §6 Snorlax evaluation."""
    return [s for s in all_bugs() if s.snorlax_eval]


def table_bugs(table: int) -> list[BugSpec]:
    return [s for s in all_bugs() if s.table == table]


def systems() -> list[str]:
    return sorted({s.system for s in all_bugs()})
