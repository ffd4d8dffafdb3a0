"""Static way partitioning (Nomo / DAWG-style eviction isolation).

Each hardware thread owns a disjoint subset of the ways of every set and
its fills may only evict within that subset.  The receiver therefore can
never replace the sender's dirty lines, which removes the WB channel's
signal (Section 8: "DAWG ... also mitigates WB channels").  The cost is
the classic one: every thread effectively runs with a smaller cache.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.cache.cache import Cache
from repro.cache.configs import XeonE5_2650Config, _defended_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy


class WayPartitionedCache(Cache):
    """A cache with a static owner → allowed-ways mask.

    ``partitions`` maps each hardware-thread id to the tuple of way
    indices it may allocate into.  Owners absent from the map (and
    hierarchy-internal traffic with ``owner=None``) fall back to
    ``default_ways``, which defaults to all ways — matching Nomo's
    "unassigned ways are shared" behaviour.
    """

    def __init__(
        self,
        *args,
        partitions: Optional[Dict[int, Sequence[int]]] = None,
        default_ways: Optional[Sequence[int]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.partitions: Dict[int, Tuple[int, ...]] = {}
        for owner, ways in (partitions or {}).items():
            ways_tuple = tuple(sorted(set(ways)))
            if not ways_tuple:
                raise ConfigurationError(f"owner {owner} has an empty partition")
            if any(not 0 <= way < self.associativity for way in ways_tuple):
                raise ConfigurationError(
                    f"owner {owner} partition {ways_tuple} exceeds "
                    f"associativity {self.associativity}"
                )
            self.partitions[owner] = ways_tuple
        self.default_ways: Optional[Tuple[int, ...]] = (
            tuple(sorted(set(default_ways))) if default_ways is not None else None
        )

    def allowed_ways(self, owner: Optional[int]) -> Optional[Sequence[int]]:
        if owner is not None and owner in self.partitions:
            return self.partitions[owner]
        return self.default_ways


def split_ways_evenly(associativity: int, num_threads: int) -> Dict[int, Tuple[int, ...]]:
    """Contiguous even split of ways across thread ids 0..num_threads-1.

    >>> split_ways_evenly(8, 2)
    {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    """
    if num_threads <= 0:
        raise ConfigurationError("num_threads must be positive")
    if associativity % num_threads:
        raise ConfigurationError(
            f"{associativity} ways do not split evenly over {num_threads} threads"
        )
    per_thread = associativity // num_threads
    return {
        tid: tuple(range(tid * per_thread, (tid + 1) * per_thread))
        for tid in range(num_threads)
    }


def make_partitioned_hierarchy(
    num_threads: int = 2,
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
) -> CacheHierarchy:
    """Xeon-like hierarchy with a way-partitioned L1 (even split)."""
    return _defended_xeon_hierarchy(
        lambda master, **level: WayPartitionedCache(
            "L1D-partitioned",
            **level,
            partitions=split_ways_evenly(level["associativity"], num_threads),
        ),
        config,
        rng,
    )
