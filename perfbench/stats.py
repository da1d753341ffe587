"""Pure statistics helpers for the benchmark: percentiles and fair share.

Kept free of the program under test so the rules they encode are tested
directly (``test_perfbench.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: A timing percentile is reported only with at least this many samples
#: strictly beyond it (so p90 needs >= 100 samples, p50 >= 20).
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: int) -> Optional[float]:
    """Nearest-rank ``pct``-th percentile, or ``None`` if too few samples.

    The value at rank ``k = ceil(pct * n / 100)`` is returned only when at
    least :data:`MIN_BEYOND` of the ``n`` samples lie beyond it (``n - k >=
    MIN_BEYOND``); a percentile with fewer samples above it says more about
    the few slowest samples than about the distribution.
    """
    if not 0 < pct < 100:
        raise ValueError(f"pct must be in (0, 100), got {pct}")
    n = len(values)
    rank = -(-pct * n // 100)  # integer ceil: no float error at pct * n / 100
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def share_err(dispatches: Iterable[Tuple[str, bool]],
              weights: Mapping[str, float]) -> float:
    """Largest gap between a tenant's dispatch share and its weight share.

    ``dispatches`` is the scheduler's dispatch sequence as ``(tenant,
    all_backlogged)`` pairs; only slots filled while every tenant had queued
    work count, because a tenant with nothing queued cannot take its share.
    Returns ``max over tenants of |won / counted - weight / total_weight|``,
    and 0.0 when no slot was filled under full backlog.
    """
    won: Dict[str, int] = {name: 0 for name in weights}
    counted = 0
    for tenant, backlogged in dispatches:
        if backlogged:
            won[tenant] += 1
            counted += 1
    if not counted:
        return 0.0
    total_weight = float(sum(weights.values()))
    return max(
        abs(won[name] / counted - weights[name] / total_weight)
        for name in weights
    )
