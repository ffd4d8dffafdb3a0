"""Random replacement policies.

Section 6.1 of the paper shows the WB channel surviving random replacement:
with a replacement set of L lines over a W-way set holding d dirty lines, at
least one dirty line is evicted with probability ``1 - ((W - d) / W)^L``
(99.1% at W=8, d=3, L=10).  Two variants are provided:

* :class:`UniformRandom` — each eviction picks a victim uniformly; matches
  the analytic formula exactly and is what the probability experiments use.
* :class:`LFSRPseudoRandom` — a free-running linear-feedback shift register
  shared across requests, like ARM's documented pseudo-random replacement.
  Its short-term victim sequence is a permutation-ish walk, which changes
  the small-L probabilities noticeably — a good illustration of why the
  paper's gem5 "pseudo-random" percentages (Table 5) sit below the uniform
  formula.
"""

from __future__ import annotations

import random

from repro.common.errors import ConfigurationError
from repro.replacement.base import ReplacementPolicy


class UniformRandom(ReplacementPolicy):
    """Victim chosen independently and uniformly on every eviction."""

    def on_fill(self, way: int) -> None:
        self._check_way(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)

    def victim(self) -> int:
        return self.rng.randrange(self.ways)

    def randomize_state(self) -> None:
        # Stateless: nothing to randomize.
        pass


class LFSRPseudoRandom(ReplacementPolicy):
    """Victim taken from a free-running Galois LFSR (ARM-style).

    The LFSR steps once per victim request.  Consecutive victims therefore
    never repeat immediately and walk a fixed pseudo-random cycle, which is
    cheaper in hardware than true randomness but slightly more predictable —
    the distinction Section 6.1 glosses as "pseudo-random replacement".
    """

    #: Taps for a maximal-length 8-bit Galois LFSR (x^8+x^6+x^5+x^4+1).
    _TAPS = 0xB8

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self._state = rng.randrange(1, 256)

    @classmethod
    def check_ways(cls, ways: int) -> None:
        super().check_ways(ways)
        if ways & (ways - 1):
            raise ConfigurationError(
                f"LFSRPseudoRandom requires power-of-two ways, got {ways}"
            )

    def _step(self) -> int:
        lsb = self._state & 1
        self._state >>= 1
        if lsb:
            self._state ^= self._TAPS
        return self._state

    def on_fill(self, way: int) -> None:
        self._check_way(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)

    def victim(self) -> int:
        return self._step() & (self.ways - 1)

    def randomize_state(self) -> None:
        self._state = self.rng.randrange(1, 256)
