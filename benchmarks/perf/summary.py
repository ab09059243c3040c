"""Percentiles, quartiles and the machine fingerprint, shared by
``run.py`` and ``compare.py``."""

from __future__ import annotations

import os
import platform
import statistics

# The tail percentile a timing is reported at is the highest of these
# with at least ten samples beyond it.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint() -> dict:
    """What must match before two result files may be compared.

    Built from ``os.uname`` rather than ``platform.platform()``, which
    shells out to ``uname -p``."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    uname = os.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }
