"""Struct-of-arrays cache set — the fast engine's core data structure.

Instead of a list of :class:`~repro.cache.line.CacheLine` objects, a
:class:`FastSet` keeps parallel arrays: a tag list, an owner list, and
three bitmasks (valid/dirty/locked) packed into plain ints, plus the same
``tag -> way`` dict index and incremental valid/dirty counters as the
reference :class:`~repro.cache.cache_set.CacheSet`.  Replacement metadata
lives only in an integer-encoded :class:`~repro.replacement.fast_state
.FastPolicyState`, built from the set's ``(ways, rng)``: a fast set holds
no reference policy object.

Parity contract: every public method is bit-identical to the reference
set — same return values, same exceptions, same calls into the policy
layer in the same order (so shared ``random.Random`` streams advance
identically).  ``tests/test_engine_parity.py`` enforces this by replaying
traces through both engines.  The reference implementation stays the
semantic oracle; when in doubt, its behaviour wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.cache.cache_set import AddressReconstructor
from repro.cache.line import EvictedLine
from repro.replacement.fast_state import FastPolicyState

#: Normalised per-way state used for cross-engine comparisons:
#: (valid, tag, dirty, locked, owner), with tag/owner None when invalid.
WayState = Tuple[bool, Optional[int], bool, bool, Optional[int]]


class FastSet:
    """One set of a set-associative cache, struct-of-arrays layout."""

    __slots__ = (
        "ways",
        "pol",
        "tags",
        "owners",
        "valid_mask",
        "dirty_mask",
        "locked_mask",
        "_full",
        "_index",
        "_valid_count",
        "_dirty_count",
    )

    def __init__(self, ways: int, pol: FastPolicyState) -> None:
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        self.ways = ways
        #: Replacement state for ``ways`` ways, made by the caller.
        self.pol = pol
        self.tags: List[int] = [0] * ways
        self.owners: List[Optional[int]] = [None] * ways
        self.valid_mask = 0
        self.dirty_mask = 0
        self.locked_mask = 0
        self._full = (1 << ways) - 1
        self._index: Dict[int, int] = {}
        self._valid_count = 0
        self._dirty_count = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, tag: int) -> Optional[int]:
        """Way index holding ``tag``, or None."""
        return self._index.get(tag)

    # ------------------------------------------------------------------
    # Fill / eviction
    # ------------------------------------------------------------------
    def _dirty_hint(self) -> Tuple[bool, ...]:
        # Dirty implies valid here (eviction/invalidation clears the bit),
        # matching the reference's ``line.valid and line.dirty``.
        dirty = self.dirty_mask
        return tuple(bool((dirty >> way) & 1) for way in range(self.ways))

    def choose_victim(self, allowed_ways: Optional[Sequence[int]] = None) -> int:
        """Pick the way a fill will (re)use, preferring invalid ways.

        Mirrors the reference set exactly, including the bounded
        victim-nudge loop and its fallback, so policy RNG streams stay in
        lock-step between engines.
        """
        valid = self.valid_mask
        full = self._full
        if allowed_ways is None:
            if valid != full:
                invalid = ~valid & full
                return (invalid & -invalid).bit_length() - 1
            evictable_mask = full & ~self.locked_mask
            if not evictable_mask:
                raise SimulationError(
                    "no evictable way: all permitted ways are locked"
                )
            pol = self.pol
            if pol.wants_dirty_hint:
                pol.notify_dirty_ways(self._dirty_hint())
            if evictable_mask == full:
                # Hot path: nothing locked, first policy choice stands.
                return pol.victim()
            for _ in range(4 * self.ways):
                way = pol.victim()
                if (evictable_mask >> way) & 1:
                    return way
                pol.on_hit(way)
            return (evictable_mask & -evictable_mask).bit_length() - 1

        # Restricted-way path (way-partitioning defenses); cold, so mirror
        # the reference shape directly.
        if valid != full:
            for way in allowed_ways:
                if not (valid >> way) & 1:
                    return way
        allowed = set(allowed_ways)
        if not allowed:
            raise ConfigurationError("allowed_ways must not be empty")
        locked = self.locked_mask
        evictable = {way for way in allowed if not (locked >> way) & 1}
        if not evictable:
            raise SimulationError(
                "no evictable way: all permitted ways are locked"
            )
        pol = self.pol
        if pol.wants_dirty_hint:
            pol.notify_dirty_ways(self._dirty_hint())
        for _ in range(4 * self.ways):
            way = pol.victim()
            if way in evictable:
                return way
            pol.on_hit(way)
        return min(evictable)

    def fill(
        self,
        tag: int,
        dirty: bool,
        owner: Optional[int],
        set_index: int,
        address_of: AddressReconstructor,
        allowed_ways: Optional[Sequence[int]] = None,
    ) -> Optional[EvictedLine]:
        """Install ``tag`` into the set, returning the evicted line if any."""
        if tag in self._index:
            raise SimulationError(
                f"fill of tag {tag:#x} that is already present in the set"
            )
        way = self.choose_victim(allowed_ways)
        bit = 1 << way
        evicted: Optional[EvictedLine] = None
        if self.valid_mask & bit:
            victim_dirty = bool(self.dirty_mask & bit)
            evicted = EvictedLine(
                address=address_of(self.tags[way], set_index),
                dirty=victim_dirty,
                owner=self.owners[way],
            )
            del self._index[self.tags[way]]
            self._valid_count -= 1
            if victim_dirty:
                self.dirty_mask &= ~bit
                self._dirty_count -= 1
            self.pol.on_invalidate(way)
        self.tags[way] = tag
        self.owners[way] = owner
        self.valid_mask |= bit
        self.locked_mask &= ~bit
        if dirty:
            self.dirty_mask |= bit
            self._dirty_count += 1
        self._index[tag] = way
        self._valid_count += 1
        self.pol.on_fill(way)
        return evicted

    def invalidate(self, tag: int) -> Optional[EvictedLine]:
        """Drop ``tag`` from the set (clflush), reporting its final state."""
        way = self._index.get(tag)
        if way is None:
            return None
        bit = 1 << way
        was_dirty = bool(self.dirty_mask & bit)
        snapshot = EvictedLine(address=-1, dirty=was_dirty, owner=self.owners[way])
        del self._index[tag]
        self._valid_count -= 1
        if was_dirty:
            self.dirty_mask &= ~bit
            self._dirty_count -= 1
        self.valid_mask &= ~bit
        self.locked_mask &= ~bit
        self.owners[way] = None
        self.pol.on_invalidate(way)
        return snapshot

    def invalidate_all(self) -> None:
        """Drop every line (cache-wide flush, e.g. a defense rekey)."""
        valid = self.valid_mask
        way = 0
        while valid:
            if valid & 1:
                self.owners[way] = None
                self.pol.on_invalidate(way)
            valid >>= 1
            way += 1
        self.valid_mask = 0
        self.dirty_mask = 0
        self.locked_mask = 0
        self._index.clear()
        self._valid_count = 0
        self._dirty_count = 0

    def mark_dirty(self, way: int) -> None:
        """Set the dirty bit of the (valid) line in ``way``."""
        bit = 1 << way
        if not self.valid_mask & bit:
            raise SimulationError(f"mark_dirty on invalid way {way}")
        if not self.dirty_mask & bit:
            self.dirty_mask |= bit
            self._dirty_count += 1

    # ------------------------------------------------------------------
    # Introspection used by experiments, defenses and tests
    # ------------------------------------------------------------------
    def dirty_count(self) -> int:
        """Number of valid dirty lines currently in the set (O(1))."""
        return self._dirty_count

    def valid_count(self) -> int:
        """Number of valid lines currently in the set (O(1))."""
        return self._valid_count

    def scan_counts(self) -> Tuple[int, int]:
        """(valid, dirty) recomputed from the bitmasks (invariant tests)."""
        valid = bin(self.valid_mask).count("1")
        dirty = bin(self.dirty_mask & self.valid_mask).count("1")
        return valid, dirty

    def index_snapshot(self) -> Dict[int, int]:
        """Copy of the tag -> way index (exposed for the staleness tests)."""
        return dict(self._index)

    def way_states(self) -> Tuple[WayState, ...]:
        """Normalised per-way snapshot for cross-engine comparisons."""
        states: List[WayState] = []
        for way in range(self.ways):
            bit = 1 << way
            if self.valid_mask & bit:
                states.append(
                    (
                        True,
                        self.tags[way],
                        bool(self.dirty_mask & bit),
                        bool(self.locked_mask & bit),
                        self.owners[way],
                    )
                )
            else:
                states.append((False, None, False, False, None))
        return tuple(states)

    def lock(self, tag: int) -> bool:
        """Lock ``tag`` against eviction (PLcache); False if absent."""
        way = self._index.get(tag)
        if way is None:
            return False
        self.locked_mask |= 1 << way
        return True
