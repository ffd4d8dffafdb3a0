"""Randomized set-index mapping (CEASER-style keyed indexing).

The address-to-set mapping is permuted under a secret key, so an attacker
building a replacement set from virtual-address strides no longer gets
lines that collide in one set — the naive WB receiver's measurement loses
its meaning.  Optional epoch-based re-keying models CEASER's remapping.

The paper's caveats (Section 8), which the evaluation demonstrates:

* with a *fixed* key the attacker can recover a conflicting set by
  profiling (our :func:`find_eviction_set` does this with timing
  only, the way real eviction-set construction works);
* L1 randomization like this costs latency on the critical path in real
  designs — the model charges ``index_latency_extra`` per access.

:func:`make_randomized_mapping_hierarchy`'s L2 and LLC follow the
selected engine; this L1 runs on the reference core under either,
since its keyed ``set_index`` cannot ride the shift-and-mask index
that :class:`~repro.engine.fast_cache.FastCache` inlines.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cache.cache import Cache
from repro.cache.configs import XeonE5_2650Config, _defended_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy


def _feistel_round(value: int, key: int, bits: int) -> int:
    """One round of a tiny Feistel permutation over ``bits`` bits."""
    half = bits // 2
    mask = (1 << half) - 1
    left = value >> half
    right = value & mask
    mixed = (right * 0x9E37 + key) & 0xFFFF
    mixed ^= mixed >> 7
    new_left = right
    new_right = left ^ (mixed & mask)
    return (new_left << half) | new_right


class RandomizedMappingCache(Cache):
    """Cache whose set index is a keyed permutation of (tag, index) bits.

    The permutation input is the line address's low bits (index plus a few
    tag bits), so two addresses with equal classic index generally land in
    different sets — breaking stride-built eviction sets.

    ``set_index`` is a pure function of the address and the current key.
    Re-keying counts demand accesses, one per :meth:`lookup` (the first
    step of every hierarchy walk), so probes, fills, store marking and
    telemetry never shift an epoch boundary.
    """

    def __init__(
        self,
        *args,
        key: int = 0x5A17,
        rekey_period_accesses: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.key = key
        #: Accesses between re-keyings; 0 disables re-keying.
        self.rekey_period_accesses = rekey_period_accesses
        self._accesses_since_rekey = 0
        self._rekey_rng = random.Random(key)
        #: How many times the mapping was re-keyed (epoch counter).
        self.rekey_count = 0

    def tag_of(self, address: int) -> int:
        # Full line-address tag: under a permuted index the classic
        # (tag, index) split is no longer injective — two lines of one
        # page could alias within a permuted set.
        return address >> self.layout.offset_bits

    def _address_of(self, tag: int, set_index: int) -> int:
        # The full-width tag already contains the whole line address.
        del set_index
        return tag << self.layout.offset_bits

    def set_index(self, address: int) -> int:
        index_bits = self.layout.index_bits
        # Mix the classic index with low tag bits through the keyed
        # permutation; modulo back into the set range.
        raw = (address >> self.layout.offset_bits) & ((1 << (index_bits + 6)) - 1)
        permuted = raw
        for round_key in (self.key, self.key ^ 0x3C3C, (self.key >> 3) | 1):
            permuted = _feistel_round(permuted, round_key, index_bits + 6)
        return permuted & (self.num_sets - 1)

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        self._maybe_rekey()
        return super().lookup(address, owner)

    def _maybe_rekey(self) -> None:
        if self.rekey_period_accesses <= 0:
            return
        self._accesses_since_rekey += 1
        if self._accesses_since_rekey >= self.rekey_period_accesses:
            # Re-keying flushes the cache in real designs; model the same.
            # invalidate_all keeps the per-set tag index and dirty/valid
            # counters in sync (direct line mutation would desync them).
            # A set not yet built is empty, so only built sets are flushed.
            for cache_set in self._sets:
                if cache_set is not None:
                    cache_set.invalidate_all()
            self.key = self._rekey_rng.randrange(1, 1 << 16)
            self._accesses_since_rekey = 0
            self.rekey_count += 1


def find_eviction_set(
    hierarchy: CacheHierarchy,
    space,
    probe_line: int,
    candidates: List[int],
    owner: Optional[int] = None,
    miss_threshold: float = 8.0,
) -> List[int]:
    """Timing-only eviction-set construction against a fixed key.

    Group-testing reduction (the standard eviction-set algorithm): start
    from a candidate pool that evicts ``probe_line``, then repeatedly drop
    chunks that are not needed for the eviction, converging to a small
    conflicting set.  This is the profiling attack the paper says defeats
    *fixed* randomized mappings — it never inspects the key, only load
    timings.
    """

    def _traverse(group: List[int]) -> bool:
        hierarchy.load(space.translate(probe_line), owner=owner)
        for _ in range(2):
            for line in group:
                hierarchy.load(space.translate(line), owner=owner)
        latency = hierarchy.load(space.translate(probe_line), owner=owner).latency
        return latency > miss_threshold

    def evicts(group: List[int]) -> bool:
        # Self-priming oracle: the first traversal normalises the cache to
        # "group lines + probe only" (evicting stale lines left by earlier
        # trials, whose extra pressure would otherwise fake evictions);
        # the second traversal measures the group's own conflict capacity.
        _traverse(group)
        return _traverse(group)

    group = list(candidates)
    if not evicts(group):
        return []
    associativity = hierarchy.l1.associativity
    changed = True
    while changed and len(group) > associativity:
        changed = False
        chunk = max(1, len(group) // (associativity + 1))
        index = 0
        while index < len(group) and len(group) > associativity:
            trial = group[:index] + group[index + chunk :]
            if trial and evicts(trial):
                group = trial
                changed = True
            else:
                index += chunk
    return group


def make_randomized_mapping_hierarchy(
    key: int = 0x5A17,
    rekey_period_accesses: int = 0,
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
) -> CacheHierarchy:
    """Xeon-like hierarchy with a randomized-mapping L1.

    The keyed index computation sits on the L1 critical path; the paper
    notes this "has a great performance loss when used in the L1 cache",
    which the model charges as +2 cycles on every L1 hit.
    """
    import dataclasses

    if config is None:
        config = XeonE5_2650Config()
    config = dataclasses.replace(
        config,
        latency=dataclasses.replace(
            config.latency,
            l1_hit=config.latency.l1_hit + 2,
            l2_hit=config.latency.l2_hit + 2,
        ),
    )
    return _defended_xeon_hierarchy(
        lambda master, **level: RandomizedMappingCache(
            "L1D-randomized",
            **level,
            key=key,
            rekey_period_accesses=rekey_period_accesses,
        ),
        config,
        rng,
    )
