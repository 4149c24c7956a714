"""Percentiles, spreads and the regression verdict the benchmark reports."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "LADDER",
    "percentile",
    "quartiles",
    "spread",
    "tail_percentile",
    "verdict",
]

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(ordered) - 1)
    low = ordered[math.floor(rank)]
    high = ordered[math.ceil(rank)]
    if low == high:  # also keeps two +inf samples (failures) from giving nan
        return low
    return low + (high - low) * (rank - math.floor(rank))


def tail_percentile(count: int, beyond: int = 10) -> float | None:
    """The highest ladder percentile with at least ``beyond`` samples past it.

    ``None`` when even the median has fewer than ``beyond`` samples past it.
    """
    best = None
    for q in LADDER:
        if count - math.ceil(count * q / 100.0) >= beyond:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def verdict(parent, change, bound: float, better: str = "lower") -> str:
    """Judge a metric's runs at two commits.

    ``parent`` and ``change`` are per-run values in run order; run ``i``
    of each side forms a pair.  Returns:

    - ``improved``: the change wins at least nine tenths of at least ten
      pairs (ties count for neither side) and the medians differ by more
      than the parent's interquartile distance;
    - ``regressed``: the change's median is worse than the parent's by
      more than the bound, however wide the spread;
    - ``unresolved``: the parent's own spread is wider than the bound and
      not every run of the change reads better than every run of the
      parent, so "unchanged" cannot be told apart from a regression
      within the bound's reach;
    - ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        return sign * (old - new)

    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if gain(old, new) > 0)
    q1, median, q3 = quartiles(parent)
    changed = statistics.median(change)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(changed - median) > q3 - q1
    ):
        return "improved"
    if -gain(median, changed) > bound * median:
        return "regressed"
    every_better = all(
        gain(old, new) > 0 for old in parent for new in change
    )
    if (q3 - q1) / median > bound and not every_better:
        return "unresolved"
    return "unchanged"
