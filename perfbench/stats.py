"""Small statistics the benchmark reports: per-operation medians,
Harrell-Davis quantiles, the tail percentile and the failure tally."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile (50..99) whose nearest-rank sample
    has at least ``beyond`` samples above it; 50 when none has."""
    for pct in range(99, 49, -1):
        if n - math.ceil(pct * n / 100) >= beyond:
            return pct
    return 50


def hd_quantile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted average of all order statistics
    instead of the single one at the quantile's rank.  Point costs are
    far apart (a LeNet point takes 1/100 of an Inception-v3 one), so the
    single order statistic jumps whenever noise reorders two points
    around the rank; the weighted average does not.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_density = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(np.dot(weights, ordered))


def per_key_medians(samples: Sequence[Tuple[str, float]]) -> List[float]:
    """One value per operation key: the median over its repetitions, so
    the sample count (and with it the tail percentile) does not depend
    on how many rounds a run fitted in."""
    by_key: Dict[str, List[float]] = {}
    for key, value in samples:
        by_key.setdefault(key, []).append(value)
    return [statistics.median(values) for values in by_key.values()]


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail (Harrell-Davis estimates), which percentile the
    tail is and the sample count."""
    pct = tail_percentile(len(samples))
    return {
        "p50": hd_quantile(samples, 0.5),
        "tail": hd_quantile(samples, pct / 100),
        "tail_pct": pct,
        "samples": len(samples),
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failure is a busy, rejected or error response, a result off its
    reference, a strict-invariant violation, a failed paper anchor or an
    unsound degraded answer.  An expected out-of-memory outcome is a
    success.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str] = ()) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)
        return not problems

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
