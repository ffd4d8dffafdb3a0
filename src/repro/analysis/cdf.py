"""Distribution helpers: empirical CDFs, histograms, latency summaries.

Figure 4 of the paper is a CDF of replacement latencies per dirty-line
count; these helpers produce the same series numerically so experiments and
benchmarks can print (and tests can assert on) the distributions.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError


def empirical_cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Sorted ``(value, cumulative_fraction)`` points of the empirical CDF."""
    if not samples:
        raise ConfigurationError("cannot build a CDF from zero samples")
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / n)
        else:
            points.append((value, index / n))
    return points


def histogram(
    samples: Sequence[float], bin_width: float = 1.0
) -> Dict[float, int]:
    """Counts per ``bin_width``-wide bin keyed by the bin's left edge."""
    if bin_width <= 0:
        raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
    if not samples:
        return {}
    counts: Dict[float, int] = {}
    for sample in samples:
        edge = (sample // bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    return dict(sorted(counts.items()))


@dataclass(frozen=True)
class LatencySummary:
    """Five-number-ish summary of a latency distribution."""

    count: int
    minimum: float
    median: float
    mean: float
    p90: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.0f} med={self.median:.0f} "
            f"mean={self.mean:.1f} p90={self.p90:.0f} max={self.maximum:.0f}"
        )


def summarize_latencies(samples: Sequence[float]) -> LatencySummary:
    """Summary statistics for one latency series."""
    if not samples:
        raise ConfigurationError("cannot summarise zero samples")
    ordered = sorted(samples)
    p90_index = min(len(ordered) - 1, int(round(0.9 * (len(ordered) - 1))))
    return LatencySummary(
        count=len(ordered),
        minimum=ordered[0],
        median=statistics.median(ordered),
        mean=statistics.fmean(ordered),
        p90=ordered[p90_index],
        maximum=ordered[-1],
    )
