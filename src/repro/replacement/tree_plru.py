"""Tree-based Pseudo-LRU (Tree-PLRU).

The classic binary-tree approximation of LRU used by many commercial L1
caches.  For ``W`` ways (a power of two) the policy keeps ``W - 1`` bits
arranged as a complete binary tree; each access flips the bits on its
root-to-leaf path to point *away* from the touched way, and the victim is
found by following the bits from the root.

Tree-PLRU only approximates recency, which is why the paper's Table 2 shows
that a replacement set equal to the associativity does **not** guarantee
eviction of a previously-touched line (gem5 measured 94.3% for N = 8) while
N = 9 does.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.errors import ConfigurationError
from repro.replacement.base import ReplacementPolicy


class TreePLRU(ReplacementPolicy):
    """Binary-tree PLRU over a power-of-two number of ways.

    Tree bits are stored in heap order: node 0 is the root, node ``i`` has
    children ``2i + 1`` and ``2i + 2``.  A bit value of 0 means "the LRU side
    is the left subtree" and 1 means "the LRU side is the right subtree";
    touching a way sets the bits along its path to point at the *other*
    subtree.
    """

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self._levels = ways.bit_length() - 1
        self._bits: List[int] = [0] * (ways - 1)

    @classmethod
    def check_ways(cls, ways: int) -> None:
        super().check_ways(ways)
        if ways & (ways - 1):
            raise ConfigurationError(f"TreePLRU requires power-of-two ways, got {ways}")

    def _touch(self, way: int) -> None:
        """Update the path bits so the victim walk avoids ``way``."""
        node = 0
        for level in range(self._levels - 1, -1, -1):
            went_right = (way >> level) & 1
            # Point the LRU side away from where we went.
            self._bits[node] = 0 if went_right else 1
            node = 2 * node + 1 + went_right

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def victim(self) -> int:
        node = 0
        way = 0
        for _ in range(self._levels):
            direction = self._bits[node]
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        return way

    def randomize_state(self) -> None:
        self._bits = [self.rng.randrange(2) for _ in range(len(self._bits))]

    def tree_bits(self) -> List[int]:
        """Copy of the internal tree bits (exposed for tests)."""
        return list(self._bits)
