"""FIFO (round-robin) replacement.

Evicts ways in insertion order regardless of hits.  Included as a baseline
policy: several embedded cores use it, and it is a useful contrast case in
the replacement-policy property tests (hits must *not* protect a line).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque

from repro.replacement.base import ReplacementPolicy


class FIFO(ReplacementPolicy):
    """First-in first-out eviction; hits do not refresh a line's position."""

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self._queue: Deque[int] = deque(range(ways))

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        if way in self._queue:
            self._queue.remove(way)
        self._queue.append(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        # FIFO ignores hits by definition.

    def victim(self) -> int:
        return self._queue[0]

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        if way in self._queue:
            self._queue.remove(way)
            self._queue.appendleft(way)

    def randomize_state(self) -> None:
        order = list(self._queue)
        self.rng.shuffle(order)
        self._queue = deque(order)
