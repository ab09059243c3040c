"""Wall times rescaled to a fixed machine speed.

The benchmark shares its machine with other work, whose load changes
the machine's speed by up to ~1.7x within minutes.  Left raw, that moves
a workload's median latency by 15-45% from one run to the next.  So
every timed operation is bracketed by a fixed pure-Python reference
loop, and its wall time is rescaled by ``REFERENCE_S / r``, where ``r``
is the mean of the reference times measured just before and just after
it.  The result reads as milliseconds on a machine whose reference loop
takes ``REFERENCE_S``; on the 2-vCPU Intel Xeon VM the baseline comes
from, an unloaded reference loop takes 0.9-1.0 ms, so rescaled and raw
times are close.  Eight cold corpus passes at one seed spread 14.6%
raw and 3.9% rescaled (quartile distance over median of the p50).

The raw wall times stay in the full result.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.001


def reference_loop() -> int:
    """Fixed interpreter work: dict traffic, arithmetic, small objects."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(4500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + (i * 7) % 13
    return acc


class SpeedGauge:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        started = perf_counter()
        reference_loop()
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def measure(self, fn):
        """Run ``fn()``; returns ``(value, wall_s, rescaled_s)``."""
        before = self.sample()
        started = perf_counter()
        value = fn()
        wall = perf_counter() - started
        after = self.sample()
        return value, wall, wall * REFERENCE_S * 2 / (before + after)
