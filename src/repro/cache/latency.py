"""Latency model calibrated to the paper's Table 4.

Measured on the Intel Xeon E5-2650 (Table 4 of the paper):

========================================  ============
Event                                     Cycles
========================================  ============
L1D hit                                   4 - 5
L2 hit, replacing a clean L1 line         10 - 12
L2 hit, replacing a dirty L1 line         22 - 23
========================================  ============

The model therefore anchors ``l1_hit = 4``, ``l2_hit = 11`` and
``l1_writeback_penalty = 11`` (≈ one extra L2-ish transaction to push the
dirty victim down), and adds small uniform jitter so measured distributions
have the paper's 1-2 cycle spread.  Deeper levels follow typical Sandy
Bridge numbers; their absolute values only matter for the benign-workload
statistics, not for the channel itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class LatencyModel:
    """Cycle costs of the memory hierarchy events.

    All values are in CPU cycles at the modelled 2.2 GHz clock.
    """

    l1_hit: int = 4
    l2_hit: int = 11
    llc_hit: int = 40
    dram: int = 200
    #: Extra cycles when an L1 fill must first write back a dirty victim.
    l1_writeback_penalty: int = 11
    #: Extra cycles when an L2 fill must first write back a dirty victim.
    l2_writeback_penalty: int = 18
    #: Extra cycles when an LLC fill must first write back a dirty victim.
    llc_writeback_penalty: int = 60
    #: Cost added to a store that must synchronously update the next level
    #: (write-through caches only).
    write_through_store_penalty: int = 7
    #: Cycles a store occupies its *issuing thread*.  Stores retire through
    #: the store buffer, so the thread does not wait for the cache fill —
    #: the paper's sender can dirty all eight lines of a set in a handful
    #: of cycles.  The cache-state effects still happen immediately.
    posted_store_cost: int = 2
    #: Half-width of the uniform jitter added to every access, modelling
    #: bank/port contention between hyper-threads and other unmodelled
    #: microarchitectural noise.  0 disables jitter.
    jitter: int = 1

    def __post_init__(self) -> None:
        ordered = (self.l1_hit, self.l2_hit, self.llc_hit, self.dram)
        if any(value <= 0 for value in ordered):
            raise ConfigurationError("hit latencies must all be positive")
        if list(ordered) != sorted(ordered):
            raise ConfigurationError(
                "latencies must increase with depth: "
                f"l1={self.l1_hit} l2={self.l2_hit} "
                f"llc={self.llc_hit} dram={self.dram}"
            )
        for name in (
            "l1_writeback_penalty",
            "l2_writeback_penalty",
            "llc_writeback_penalty",
            "write_through_store_penalty",
            "posted_store_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be non-negative, got {self.jitter}")

    def hit_latency(self, level: int) -> int:
        """Hit latency of hierarchy level 1 (L1), 2 (L2) or 3 (LLC)."""
        try:
            return (self.l1_hit, self.l2_hit, self.llc_hit)[level - 1]
        except IndexError:
            raise ConfigurationError(f"no such cache level: {level}")

    def writeback_penalty(self, level: int) -> int:
        """Dirty-victim penalty when *level* must evict during a fill."""
        try:
            return (
                self.l1_writeback_penalty,
                self.l2_writeback_penalty,
                self.llc_writeback_penalty,
            )[level - 1]
        except IndexError:
            raise ConfigurationError(f"no such cache level: {level}")

    def sample_jitter(self, rng: random.Random) -> int:
        """Draw one jitter term (uniform in [0, jitter])."""
        if self.jitter == 0:
            return 0
        return rng.randint(0, self.jitter)
