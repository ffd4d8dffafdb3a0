"""Perf-tool view over the hierarchy's statistics.

Table 6 of the paper reports the *sender process's* miss rates at L1/L2/LLC
under three scenarios, and Table 7 reports cache loads per millisecond.
This module turns raw :class:`~repro.cache.stats.CacheStats` counters into
those derived quantities at the modelled 2.2 GHz clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.common.units import CPU_FREQUENCY_HZ, cycles_to_seconds
from repro.cache.stats import CacheStats


def loads_per_millisecond(
    accesses: int, cycles: float, frequency_hz: float = CPU_FREQUENCY_HZ
) -> float:
    """Accesses per wall-clock millisecond for a run of ``cycles`` cycles."""
    if cycles <= 0:
        raise ConfigurationError(f"cycles must be positive, got {cycles}")
    milliseconds = cycles_to_seconds(cycles, frequency_hz) * 1e3
    return accesses / milliseconds


@dataclass(frozen=True)
class PerfReport:
    """Per-level miss rates and load counts for one hardware thread."""

    owner: Optional[int]
    cycles: float
    l1_accesses: int
    l1_loads: int
    l1_miss_rate: float
    l2_accesses: int
    l2_loads: int
    l2_miss_rate: float
    llc_accesses: int
    llc_loads: int
    llc_miss_rate: float

    @classmethod
    def from_stats(
        cls, stats: CacheStats, owner: Optional[int], cycles: float
    ) -> "PerfReport":
        """Extract a report for ``owner`` from accumulated statistics."""
        l1 = stats.level(1, owner)
        l2 = stats.level(2, owner)
        llc = stats.level(3, owner)
        return cls(
            owner=owner,
            cycles=cycles,
            l1_accesses=l1.accesses,
            l1_loads=l1.loads,
            l1_miss_rate=l1.miss_rate,
            l2_accesses=l2.accesses,
            l2_loads=l2.loads,
            l2_miss_rate=l2.miss_rate,
            llc_accesses=llc.accesses,
            llc_loads=llc.loads,
            llc_miss_rate=llc.miss_rate,
        )

    @property
    def l1_loads_per_ms(self) -> float:
        """L1 demand *loads* per millisecond (Table 7's headline metric;
        perf's load events do not count stores)."""
        return loads_per_millisecond(self.l1_loads, self.cycles)

    @property
    def l2_loads_per_ms(self) -> float:
        """L2 demand loads per millisecond."""
        return loads_per_millisecond(self.l2_loads, self.cycles)

    @property
    def llc_loads_per_ms(self) -> float:
        """LLC demand loads per millisecond."""
        return loads_per_millisecond(self.llc_loads, self.cycles)

    @property
    def total_loads_per_ms(self) -> float:
        """All cache loads per millisecond (the paper's 'Total' row)."""
        return loads_per_millisecond(
            self.l1_loads + self.l2_loads + self.llc_loads, self.cycles
        )

    def miss_rates(self) -> Dict[str, float]:
        """Mapping view used by the Table 6 renderer."""
        return {
            "L1D": self.l1_miss_rate,
            "L2": self.l2_miss_rate,
            "LLC": self.llc_miss_rate,
        }
