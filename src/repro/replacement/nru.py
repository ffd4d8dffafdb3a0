"""Not-Recently-Used (NRU) replacement.

Like Bit-PLRU but with the reset rule used by several x86 LLC designs: when
every way's reference bit is set, all bits are cleared *including* the one
being touched, and the victim scan starts from a rotating pointer rather
than way 0 (avoiding pathological way-0 churn).
"""

from __future__ import annotations

import random
from typing import List

from repro.replacement.base import ReplacementPolicy


class NRU(ReplacementPolicy):
    """NRU with a rotating scan pointer."""

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self._referenced: List[bool] = [False] * ways
        self._scan_start = 0

    def _touch(self, way: int) -> None:
        self._referenced[way] = True
        if all(self._referenced):
            self._referenced = [False] * self.ways
            self._referenced[way] = True

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def victim(self) -> int:
        for offset in range(self.ways):
            way = (self._scan_start + offset) % self.ways
            if not self._referenced[way]:
                self._scan_start = (way + 1) % self.ways
                return way
        # All referenced (possible right after randomize): clear and restart.
        self._referenced = [False] * self.ways
        way = self._scan_start
        self._scan_start = (way + 1) % self.ways
        return way

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._referenced[way] = False

    def randomize_state(self) -> None:
        self._referenced = [self.rng.random() < 0.5 for _ in range(self.ways)]
        self._scan_start = self.rng.randrange(self.ways)
