"""Write-through L1: the structural fix (Section 8).

With a write-through L1 every store is propagated downward immediately,
no L1 line is ever dirty, and replacing any victim costs the same —
the WB channel's signal does not exist.  The price is the store-path
bandwidth/latency the paper cites as the reason commercial cores keep
write-back caches.

This module is just a configuration recipe; the mechanics live in the
core cache model (:class:`~repro.cache.cache.WritePolicy`).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cache.cache import AllocationPolicy, WritePolicy
from repro.cache.configs import XeonE5_2650Config, make_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy


def make_write_through_hierarchy(
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
) -> CacheHierarchy:
    """Xeon-like hierarchy with a write-through, no-write-allocate L1.

    Write-through caches conventionally pair with no-write-allocate
    (Section 2.2 of the paper), and the combination is what real
    write-through L1s (e.g. several AMD designs) shipped.
    """
    return make_xeon_hierarchy(
        config=config,
        rng=rng,
        l1_write_policy=WritePolicy.WRITE_THROUGH,
        l1_allocation_policy=AllocationPolicy.NO_WRITE_ALLOCATE,
    )
