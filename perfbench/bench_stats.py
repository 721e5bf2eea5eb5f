"""Order statistics for latency samples.

A percentile is reported only when at least ``BEYOND`` samples lie above
it; otherwise one slow case would decide it.
"""

from __future__ import annotations

BEYOND = 10


def _rank(q: int, n: int) -> int:
    """Nearest-rank position (1-based) of the q-th percentile of n samples."""
    return max(1, (q * n + 99) // 100)


def min_samples(q: int, beyond: int = BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above the q-th percentile."""
    n = beyond
    while n - _rank(q, n) < beyond:
        n += 1
    return n


def percentile(samples, q: int, beyond: int = BEYOND) -> float:
    """Nearest-rank q-th percentile; refuses too few samples beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    data = sorted(samples)
    rank = _rank(q, len(data))
    if len(data) - rank < beyond:
        raise ValueError(
            f"p{q} of {len(data)} samples leaves {len(data) - rank} beyond it; "
            f"need {beyond}, that is at least {min_samples(q, beyond)} samples"
        )
    return data[rank - 1]
