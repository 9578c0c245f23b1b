"""Timers, resource usage and summary statistics for the benchmark.

Everything here is stdlib only and knows nothing about ramschur, so the
runner, the worker processes and the benchmark's tests share it.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

# Percentiles tried, highest first, in tenths of a percent.
_HIGH_PERMILLES = (999, 990, 950, 900)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def high_percentile(values: Sequence[float], min_beyond: int = 10) -> Optional[tuple[float, float]]:
    """(p, value) for the highest percentile with at least min_beyond samples above it.

    None when even the 90th percentile has fewer than min_beyond samples
    beyond it, since a tail estimated from a handful of samples is noise.
    """
    n = len(values)
    for permille in _HIGH_PERMILLES:
        if n * (1000 - permille) >= min_beyond * 1000:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return (permille / 10, cuts[permille - 1])
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and, when the sample allows, a high percentile."""
    q1, q2, q3 = quartiles(values)
    out = {"count": len(values), "q1": q1, "median": q2, "q3": q3}
    tail = high_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


@dataclass(frozen=True)
class Snapshot:
    """Clock and resource usage of this process and its waited-for children."""

    clock: float
    own: resource.struct_rusage
    children: resource.struct_rusage

    @classmethod
    def take(cls) -> "Snapshot":
        return cls(
            time.perf_counter(),
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class Usage:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def usage_between(start: Snapshot, end: Snapshot) -> Usage:
    """Wall time, CPU of this process and all children, and peak RSS.

    Child CPU comes from RUSAGE_CHILDREN, so it counts only children that
    were waited for before `end` was taken.  Peak RSS is the larger of this
    process's and the largest child's ru_maxrss (KiB on Linux).
    """
    cpu = (_cpu(end.own) - _cpu(start.own)) + (_cpu(end.children) - _cpu(start.children))
    rss_kib = max(end.own.ru_maxrss, end.children.ru_maxrss)
    return Usage(end.clock - start.clock, cpu, rss_kib / 1024.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_loop(iterations: int = 1_000_000) -> float:
    """Seconds taken by a fixed pure-Python loop; tells machine phases apart."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return time.perf_counter() - start
