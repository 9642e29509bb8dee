"""The benchmark's own arithmetic: the tail rule and the mixed per-layer
metrics that combine measured runs with the traced replay."""

from __future__ import annotations

import statistics

from workloads import POOL_SLOTS

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile that has at least ``beyond`` samples above it.

    That is the sample with exactly ``beyond`` larger ones.  With too few
    samples for any such percentile above the median, the median.
    """
    ordered = sorted(values)
    if len(ordered) <= 2 * beyond:
        return statistics.median(ordered)
    return ordered[len(ordered) - beyond - 1]


def parallel_eff(busy_s: float, wall_s: float, slots: int = POOL_SLOTS) -> float:
    """The replay's busy seconds over the slot-seconds the measured run had."""
    return busy_s / (slots * wall_s)


def extra_cpu(cpu_s: float, busy_s: float) -> float:
    """CPU the measured process tree spent beyond the replay's busy time."""
    return cpu_s - busy_s
