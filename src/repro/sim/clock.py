"""Virtual time and instruction cost model.

The simulator keeps one global nanosecond clock.  Executing an
instruction advances the clock by that opcode's cost; a ``delay d``
instruction puts its thread to sleep for ``d`` virtual nanoseconds while
other threads keep running, which is how corpus programs model the
application work (parsing, I/O, computation) between target events.

The default costs are loosely calibrated to a Skylake-class core (the
paper's client machine): ~1 ns simple ops, ~2 ns cache-hit memory
accesses, ~20 ns uncontended lock operations.  Exact values do not
matter for any experiment — all paper-relevant intervals are dominated
by explicit delays — but keeping them physical makes the ~5-orders-of-
magnitude claim in §3.3 meaningful inside the simulation too.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Nanosecond cost of executing each instruction class once."""

    default: int = 1
    load: int = 2
    store: int = 2
    lock: int = 20
    unlock: int = 15
    lock_init: int = 10
    malloc: int = 50
    free: int = 30
    call: int = 5
    ret: int = 3
    spawn: int = 2000
    join: int = 10
    branch: int = 1
    overrides: dict[str, int] = field(default_factory=dict)

    def cost(self, opcode: str) -> int:
        if opcode in self.overrides:
            return self.overrides[opcode]
        return getattr(self, _PRICED_OPCODES.get(opcode, "default"))


# opcode -> the CostModel field that prices it; others cost ``default``
_PRICED_OPCODES = {
    "load": "load",
    "store": "store",
    "lock": "lock",
    "unlock": "unlock",
    "lockinit": "lock_init",
    "malloc": "malloc",
    "free": "free",
    "call": "call",
    "ret": "ret",
    "spawn": "spawn",
    "join": "join",
    "br": "branch",
    "cbr": "branch",
}


class VirtualClock:
    """A monotonically advancing global nanosecond counter.

    This plays the role of the invariant TSC in the paper (§3.2): a
    time source synchronized across all (virtual) cores that timing
    packets and the coarse interleaving study read.  ``now`` is a plain
    attribute so the interpreter can add an instruction's cost to it
    directly; costs are checked non-negative when a machine is built.
    Everything else moves time through ``advance``/``advance_to``.
    """

    __slots__ = ("now",)

    def __init__(self, start: int = 0):
        self.now = start

    def advance(self, delta: int) -> int:
        if delta < 0:
            raise ValueError(f"clock cannot go backwards (delta={delta})")
        self.now += delta
        return self.now

    def advance_to(self, target: int) -> int:
        if target > self.now:
            self.now = target
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock {self.now}ns>"


US = 1_000
"""Nanoseconds per microsecond."""

MS = 1_000_000
"""Nanoseconds per millisecond."""
