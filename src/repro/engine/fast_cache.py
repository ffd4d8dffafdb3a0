"""Fast cache level: :class:`~repro.cache.cache.Cache` on SoA sets.

:class:`FastCache` keeps the reference cache's constructor, validation and
public API (the hierarchy drives both engines through the exact same
calls) and swaps in:

* :class:`~repro.engine.fast_set.FastSet` sets via the ``_make_set`` hook —
  the base class builds each set on first touch with the same per-set
  RNG on both engines, handed here to an integer policy state whose
  class the constructor resolves once
  (:func:`~repro.replacement.fast_state.fast_state_factory`);
* cached address-field integers (``offset_bits``/index mask/tag shift) so
  the hot path avoids the property chain through
  :class:`~repro.mem.address.AddressLayout`, and indexes the plain set
  list, building a set whose slot is still ``None``;
* mask-based ``is_dirty`` (the reference reads ``lines[way].dirty``, which
  a FastSet does not have).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.cache.cache import AllocationPolicy, Cache, WritePolicy
from repro.cache.line import EvictedLine
from repro.engine.fast_set import FastSet
from repro.replacement.base import PolicyFactory
from repro.replacement.fast_state import fast_state_factory

__all__ = ["FastCache", "AllocationPolicy", "WritePolicy"]


class FastCache(Cache):
    """Drop-in replacement for :class:`Cache` built on struct-of-arrays sets."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int,
        policy_factory: PolicyFactory,
        write_policy: WritePolicy = WritePolicy.WRITE_BACK,
        allocation_policy: AllocationPolicy = AllocationPolicy.WRITE_ALLOCATE,
        rng: Optional[random.Random] = None,
    ) -> None:
        # Resolved before the base constructor builds set 0.
        self._state_factory = fast_state_factory(policy_factory)
        super().__init__(
            name,
            size_bytes,
            associativity,
            line_size,
            policy_factory,
            write_policy=write_policy,
            allocation_policy=allocation_policy,
            rng=rng,
        )
        layout = self.layout
        self._offset_bits = layout.offset_bits
        self._index_mask = layout.num_sets - 1
        self._tag_shift = layout.offset_bits + layout.index_bits

    def _make_set(self, ways: int, rng: random.Random) -> FastSet:
        return FastSet(ways, self._state_factory(ways, rng))

    # ------------------------------------------------------------------
    # Address helpers on cached integers
    # ------------------------------------------------------------------
    def set_index(self, address: int) -> int:
        return (address >> self._offset_bits) & self._index_mask

    def tag_of(self, address: int) -> int:
        return address >> self._tag_shift

    def _address_of(self, tag: int, set_index: int) -> int:
        return (tag << self._tag_shift) | (set_index << self._offset_bits)

    # ------------------------------------------------------------------
    # Hot-path operations
    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        return (address >> self._tag_shift) in cache_set._index

    def is_dirty(self, address: int) -> bool:
        index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        way = cache_set._index.get(address >> self._tag_shift)
        return way is not None and bool(cache_set.dirty_mask & (1 << way))

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        way = cache_set._index.get(address >> self._tag_shift)
        if way is None:
            return False
        cache_set.pol.on_hit(way)
        if owner is not None:
            cache_set.owners[way] = owner
        return True

    def mark_dirty(self, address: int) -> None:
        index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        way = cache_set._index.get(address >> self._tag_shift)
        if way is None:
            raise ConfigurationError(
                f"{self.name}: mark_dirty on non-resident {address:#x}"
            )
        cache_set.mark_dirty(way)

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._build_set(set_index)
        return cache_set.fill(
            tag=address >> self._tag_shift,
            dirty=dirty,
            owner=owner,
            set_index=set_index,
            address_of=self._address_of,
            allowed_ways=self.allowed_ways(owner),
        )

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        return cache_set.invalidate(address >> self._tag_shift)
