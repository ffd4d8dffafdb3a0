"""Random-fill cache (Liu & Lee, MICRO 2015).

De-correlates demand accesses from cache fills: on a miss the demanded
line is sent to the CPU *without* being cached, and instead a random line
from a neighbourhood window around the demanded address is fetched into
the cache.

Section 8 of the paper argues this does **not** stop the WB channel:

* a store that *hits* still sets the dirty bit (the sender merely keeps
  its lines warm, e.g. via the random fills themselves or hits);
* the receiver does not care *which* lines are fetched — random fills
  still replace lines of the target set (with probability ~1/window per
  fill), so sizing the replacement set up by the window factor restores
  the measurement.

The evaluation therefore runs both the naive attacker (unchanged
parameters, degraded) and the adaptive attacker (window-scaled replacement
set, working again).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.cache import Cache
from repro.cache.configs import XeonE5_2650Config, _defended_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import EvictedLine


class RandomFillCache(Cache):
    """L1 variant that fills a random neighbour instead of the miss line.

    ``window`` is the neighbourhood half-width in *lines*: a miss on line
    ``x`` fills one line drawn uniformly from ``[x - window, x + window]``
    (excluding nothing; drawing ``x`` itself is allowed, as in the RF(0,N)
    configurations of the original design).
    """

    def __init__(self, *args, window: int = 4, fill_rng: Optional[random.Random] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if window < 0:
            raise ConfigurationError(f"window must be non-negative, got {window}")
        self.window = window
        self.fill_rng = ensure_rng(fill_rng)
        #: Demand misses whose data was served uncached.
        self.decorrelated_fills = 0

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        if dirty or self.window == 0:
            # Write-backs from upper levels (none above L1) and the
            # degenerate window keep normal placement.
            return super().fill(address, dirty, owner)
        line = self.layout.line_size
        offset = self.fill_rng.randint(-self.window, self.window)
        neighbour = max(0, address + offset * line)
        self.decorrelated_fills += 1
        if self.probe(neighbour):
            # Neighbour already resident: nothing to install (the demanded
            # data went straight to the CPU).
            return None
        return super().fill(neighbour, dirty, owner)


def make_random_fill_hierarchy(
    window: int = 4,
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
) -> CacheHierarchy:
    """Xeon-like hierarchy with a random-fill L1."""
    return _defended_xeon_hierarchy(
        lambda master, **level: RandomFillCache(
            "L1D-randomfill",
            **level,
            window=window,
            fill_rng=derive_rng(master, "l1-fill"),
        ),
        config,
        rng,
    )
