"""Order statistics the benchmark reports."""

from __future__ import annotations

from typing import Dict, Sequence

#: the tail percentile is the highest one with at least this many samples
#: strictly beyond it
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile that leaves at least ``TAIL_MIN_BEYOND``
    samples strictly greater than its value.

    With ``n`` distinct samples that is the ``(n - 10)``-th smallest, at
    percentile ``100 * (n - 10) / n``; where a tie straddles that rank the
    next smaller distinct value is taken, so that ten samples still lie
    strictly beyond it.  Returns ``{"value", "pct", "n", "beyond"}``.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = n - TAIL_MIN_BEYOND - 1       # 0-based index of the candidate
    while idx >= 0 and ordered[idx] == ordered[idx + 1]:
        idx -= 1
    if idx < 0:
        raise ValueError(
            f"no percentile of {n} samples has {TAIL_MIN_BEYOND} beyond it")
    return {"value": ordered[idx], "pct": 100.0 * (idx + 1) / n, "n": n,
            "beyond": n - idx - 1}
