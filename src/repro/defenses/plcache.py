"""PLcache: partition-locked cache (Wang & Lee).

Lines belonging to *protected* hardware threads are locked into the cache:
no other thread's fill may evict them.  Against the WB channel this means
the receiver's replacement set cannot evict the sender's locked dirty
lines, so no dirty write-back ever lands in the receiver's measurement —
the channel's signal disappears (Section 8: "the PLCache is effective for
mitigating the WB channel").

The known PLcache pathology is preserved too: when every permitted way of
a set is locked, a fill has nowhere to go.  Real PLcache serves the data
uncached; :meth:`PLCache.fill` models that as a *bypass* (no installation,
no eviction), which the hierarchy already tolerates.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from repro.common.errors import SimulationError
from repro.cache.cache import Cache
from repro.cache.configs import XeonE5_2650Config, _defended_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import EvictedLine


class PLCache(Cache):
    """A cache whose protected owners' lines are lock-on-fill."""

    def __init__(self, *args, protected_owners: Iterable[int] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.protected_owners: Set[int] = set(protected_owners)
        #: Fills dropped because every permitted way was locked.
        self.bypassed_fills = 0

    def _lock_if_protected(self, address: int, owner: Optional[int]) -> None:
        if owner in self.protected_owners:
            self.set_for(address).lock(self.layout.tag(address))

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        try:
            evicted = super().fill(address, dirty, owner)
        except SimulationError:
            # Every permitted way is locked: serve the data uncached.
            self.bypassed_fills += 1
            return None
        self._lock_if_protected(address, owner)
        return evicted

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        hit = super().lookup(address, owner)
        if hit:
            self._lock_if_protected(address, owner)
        return hit


def make_plcache_hierarchy(
    protected_owners: Iterable[int] = (0,),
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
) -> CacheHierarchy:
    """Xeon-like hierarchy with a PLcache L1 protecting ``protected_owners``.

    The default protects thread 0 — the channel convention for the sender
    (i.e. the *victim* process a deployment would actually protect).
    """
    return _defended_xeon_hierarchy(
        lambda master, **level: PLCache(
            "L1D-PLcache", **level, protected_owners=protected_owners
        ),
        config,
        rng,
    )
