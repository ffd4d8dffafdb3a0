"""Static Re-Reference Interval Prediction (SRRIP).

Jaleel et al.'s 2-bit RRPV policy, deployed in Intel LLCs.  Each way has a
re-reference prediction value (RRPV); fills insert with a "long" prediction,
hits promote to "near-immediate", and the victim is any way at the maximum
RRPV (aging every way when none is).  Included because the paper's taxonomy
discussion contrasts L1 PLRU behaviour with LLC policies, and because it
gives the test suite a policy whose protection is *weaker* than LRU for
streaming patterns.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.errors import ConfigurationError
from repro.replacement.base import ReplacementPolicy


def check_rrpv_bits(rrpv_bits: int) -> None:
    """Raise :class:`ConfigurationError` unless ``rrpv_bits`` is positive."""
    if rrpv_bits <= 0:
        raise ConfigurationError(f"rrpv_bits must be positive, got {rrpv_bits}")


class SRRIP(ReplacementPolicy):
    """2-bit (configurable) SRRIP with hit-promotion to RRPV 0."""

    def __init__(self, ways: int, rng: random.Random, rrpv_bits: int = 2) -> None:
        super().__init__(ways, rng)
        check_rrpv_bits(rrpv_bits)
        self.max_rrpv = (1 << rrpv_bits) - 1
        # Start everything at "distant" so cold sets behave like fills.
        self._rrpv: List[int] = [self.max_rrpv] * ways

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        self._rrpv[way] = self.max_rrpv - 1

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        self._rrpv[way] = 0

    def victim(self) -> int:
        while True:
            for way in range(self.ways):
                if self._rrpv[way] == self.max_rrpv:
                    return way
            for way in range(self.ways):
                self._rrpv[way] += 1

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._rrpv[way] = self.max_rrpv

    def randomize_state(self) -> None:
        self._rrpv = [self.rng.randrange(self.max_rrpv + 1) for _ in range(self.ways)]

    def rrpv_values(self) -> List[int]:
        """Copy of per-way RRPVs (exposed for tests)."""
        return list(self._rrpv)
