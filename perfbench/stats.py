"""The benchmark's own statistics: order statistics, the tail-percentile
rule, span self time, and failure counting.

Pure functions over plain numbers and tuples, so the unit tests in
``perfbench/tests`` pin them without running a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer and one outlier decides the number.
MIN_BEYOND = 10


def median(values: list[float]) -> float:
    """The median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile: the smallest sample with
    at least ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(
    values: list[float], highest: int = 99, min_beyond: int = MIN_BEYOND
) -> tuple[int, float]:
    """The highest whole percentile, at most ``highest``, that has at
    least ``min_beyond`` samples strictly after its rank.

    Returns ``(pct, value)``.  With 1,000 samples that is the 99th
    percentile; with fewer it steps down (72 samples give the 86th).
    Below the median the rule reports the median itself,
    ``(50, median(values))``, so the tail never reads under it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    for pct in range(highest, 50, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, nearest_rank(values, pct)
    return 50, median(values)


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """How much of ``interval`` the union of ``children`` covers.

    Children are clipped to the interval and overlaps count once, so
    the result never exceeds the interval's own length.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(
    spans: list[tuple[str, float, float, int | None]],
) -> list[float]:
    """Each span's self time: its duration minus the part of it that
    its child spans cover.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples; the
    parent index is ``None`` for a root.  For spans that nest properly
    the self times of a tree sum to its root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered((start, end), children.get(index, []))
        for index, (_, start, end, _) in enumerate(spans)
    ]


def sum_by(spans: list[tuple[str, float, float, int | None]],
           values: list[float], key) -> dict[str, float]:
    """``values`` (one per span, e.g. its self time) summed per
    ``key(name)``, e.g. per layer."""
    totals: dict[str, float] = {}
    for (name, *_), value in zip(spans, values):
        group = key(name)
        totals[group] = totals.get(group, 0.0) + value
    return totals


@dataclass
class OpTally:
    """Ops attempted and failed.

    An op fails when it raised, was refused by the program, or its
    output did not pass the workload's check; a failed op is counted
    once however many of those happened to it.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def fail_checked(self, count: int) -> None:
        """Mark ``count`` already-attempted ops as failed by a later
        output check (never more than were attempted)."""
        self.failed = min(self.attempted, self.failed + count)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
