"""Latency-threshold decoding.

The receiver turns each measured replacement latency into a dirty-line
level.  Figure 4 of the paper shows the per-level latency CDFs as narrow,
well-separated bands; the decoder therefore calibrates one threshold at the
midpoint between the medians of adjacent levels (the dotted lines in
Figures 5 and 7) and classifies by interval.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ThresholdDecoder:
    """Maps a latency to the nearest calibrated dirty-line level.

    ``levels`` are the dirty-line counts in ascending order and
    ``thresholds[i]`` separates ``levels[i]`` from ``levels[i + 1]``.
    """

    levels: Sequence[int]
    thresholds: Sequence[float]
    medians: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ConfigurationError("need at least two levels to decode")
        if len(self.thresholds) != len(self.levels) - 1:
            raise ConfigurationError(
                f"{len(self.levels)} levels need {len(self.levels) - 1} "
                f"thresholds, got {len(self.thresholds)}"
            )
        if list(self.levels) != sorted(self.levels):
            raise ConfigurationError("levels must be ascending")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ConfigurationError("thresholds must be ascending")

    @classmethod
    def calibrate(
        cls,
        samples_by_level: Dict[int, Sequence[float]],
        min_separation: float = 3.0,
    ) -> "ThresholdDecoder":
        """Build a decoder from labelled calibration measurements.

        ``samples_by_level`` maps each dirty-line count to latency samples
        observed with exactly that many dirty lines in the target set.
        Adjacent level medians must be monotone and at least
        ``min_separation`` cycles apart; anything closer is
        indistinguishable from measurement noise and means the machine
        carries no dirty-state signal (write-through caches, partitioned
        caches from the victim's side, ...).
        """
        if len(samples_by_level) < 2:
            raise ConfigurationError("calibration needs at least two levels")
        levels = sorted(samples_by_level)
        medians: List[float] = []
        for level in levels:
            samples = samples_by_level[level]
            if not samples:
                raise ConfigurationError(f"no calibration samples for level {level}")
            medians.append(statistics.median(samples))
        gaps = [high - low for low, high in zip(medians, medians[1:])]
        if any(gap < min_separation for gap in gaps):
            raise ConfigurationError(
                "calibration medians are not separated in the dirty-line "
                f"count: {dict(zip(levels, medians))}; the latency signal "
                "is absent (is the cache write-through?)"
            )
        thresholds = [
            (low + high) / 2.0 for low, high in zip(medians, medians[1:])
        ]
        return cls(levels=tuple(levels), thresholds=tuple(thresholds), medians=tuple(medians))

    def classify(self, latency: float) -> int:
        """The dirty-line level whose calibrated band contains ``latency``."""
        for threshold, level in zip(self.thresholds, self.levels):
            if latency < threshold:
                return level
        return self.levels[-1]

    def classify_many(self, latencies: Sequence[float]) -> List[int]:
        """Vector form of :meth:`classify`."""
        return [self.classify(latency) for latency in latencies]

    def separation(self) -> float:
        """Smallest gap between adjacent level medians (signal strength)."""
        return min(high - low for low, high in zip(self.medians, self.medians[1:]))

    def describe(self) -> str:
        """One-line human-readable summary for experiment logs."""
        pairs = ", ".join(
            f"d={level}:{median:.0f}cy" for level, median in zip(self.levels, self.medians)
        )
        return f"ThresholdDecoder({pairs})"


class AdaptiveThresholdDecoder:
    """A :class:`ThresholdDecoder` that recalibrates itself online.

    Real machines drift: DVFS and thermal state move the whole latency
    distribution over seconds, and a decoder frozen at its calibration
    medians mistakes drift for signal — the raw channel's dominant
    failure under the ``drift`` fault class.  This wrapper tracks each
    level's median with an exponentially weighted moving average: every
    classified sample pulls its level's running median toward the
    observed latency, so thresholds (still the midpoints between
    adjacent medians) follow the drift instead of being crossed by it.

    Two guard rails keep adaptation from destroying the decoder:

    * per-update steps are clamped to ``max_step_cycles``, so one
      misclassified sample cannot teleport a median;
    * samples further than ``outlier_cycles`` from their nearest median
      (co-runner burst spikes, DRAM refills) classify normally but do
      not update anything.
    """

    def __init__(
        self,
        base: ThresholdDecoder,
        alpha: float = 0.2,
        max_step_cycles: float = 3.0,
        outlier_cycles: float = 25.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if max_step_cycles <= 0 or outlier_cycles <= 0:
            raise ConfigurationError(
                "max_step_cycles and outlier_cycles must be positive"
            )
        self.base = base
        self.levels = tuple(base.levels)
        self.alpha = alpha
        self.max_step_cycles = max_step_cycles
        self.outlier_cycles = outlier_cycles
        self._medians: List[float] = [float(m) for m in base.medians]
        self._initial: Sequence[float] = tuple(self._medians)
        self.updates = 0
        self.outliers = 0

    @property
    def medians(self) -> Sequence[float]:
        """Current (adapted) level medians."""
        return tuple(self._medians)

    @property
    def thresholds(self) -> Sequence[float]:
        """Current thresholds: midpoints between adjacent medians."""
        return tuple(
            (low + high) / 2.0
            for low, high in zip(self._medians, self._medians[1:])
        )

    def classify(self, latency: float) -> int:
        """Interval classification against the *current* thresholds."""
        for threshold, level in zip(self.thresholds, self.levels):
            if latency < threshold:
                return level
        return self.levels[-1]

    def observe(self, latency: float) -> int:
        """Classify ``latency`` and fold it into the running medians."""
        level = self.classify(latency)
        index = self.levels.index(level)
        residual = latency - self._medians[index]
        if abs(residual) > self.outlier_cycles:
            self.outliers += 1
            return level
        step = self.alpha * residual
        step = max(-self.max_step_cycles, min(self.max_step_cycles, step))
        updated = self._medians[index] + step
        # Keep the medians strictly ordered; an update that would cross a
        # neighbour is dropped (the neighbour's own updates will make room).
        lower_ok = index == 0 or updated > self._medians[index - 1]
        upper_ok = (
            index == len(self._medians) - 1 or updated < self._medians[index + 1]
        )
        if lower_ok and upper_ok:
            self._medians[index] = updated
            self.updates += 1
        return level

    def classify_many(self, latencies: Sequence[float]) -> List[int]:
        """Classify a latency series, adapting as it goes."""
        return [self.observe(latency) for latency in latencies]

    def drift(self) -> List[float]:
        """Per-level adaptation distance from the calibrated medians."""
        return [
            current - initial
            for current, initial in zip(self._medians, self._initial)
        ]

    def describe(self) -> str:
        """One-line summary mirroring :meth:`ThresholdDecoder.describe`."""
        pairs = ", ".join(
            f"d={level}:{median:.1f}cy"
            for level, median in zip(self.levels, self._medians)
        )
        return f"AdaptiveThresholdDecoder({pairs}, updates={self.updates})"
