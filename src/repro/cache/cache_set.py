"""A single cache set: ways, replacement-policy metadata, fill/evict logic.

Victim selection order (mirrors real write-allocate caches and supports the
defense models):

1. any invalid way;
2. otherwise the replacement policy's choice, skipping locked ways
   (PLcache) and ways outside the caller's allowed-way mask (partitioned
   caches) by re-querying the policy after a forced touch of the forbidden
   way — bounded, and falling back to a linear scan if the policy keeps
   pointing at forbidden ways.

Lookup is O(1): a ``tag -> way`` dict index shadows the line array and is
kept in sync by every state transition (fill, invalidate, full clear), so
``find`` never scans.  ``dirty_count``/``valid_count`` are maintained
incrementally for the same reason — experiments poll them every period.
All line-state changes must therefore go through this class; mutating a
:class:`~repro.cache.line.CacheLine` directly would desynchronise the
index and the counters (``scan_counts`` exists so tests can verify they
never drift).

A way holds its own line only once a fill has reached it.  Until then it
refers to the shared, read-only :data:`~repro.cache.line.EMPTY_LINE`, and
:meth:`CacheSet.fill` replaces that with a fresh line; every other
mutator reaches only valid lines.  Most sets of a large cache never fill
most of their ways, so the lines that never held data are never built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Converts (tag, set_index) back into a line-aligned address so the
#: hierarchy can route write-backs of evicted victims.
AddressReconstructor = Callable[[int, int], int]

from repro.common.errors import ConfigurationError, SimulationError
from repro.cache.line import EMPTY_LINE, CacheLine, EvictedLine
from repro.replacement.base import ReplacementPolicy


class CacheSet:
    """One set of a set-associative cache."""

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        if policy.ways != ways:
            raise ConfigurationError(
                f"policy manages {policy.ways} ways but the set has {ways}"
            )
        self.ways = ways
        self.policy = policy
        self.lines: List[CacheLine] = [EMPTY_LINE] * ways
        #: O(1) lookup index over the valid lines.
        self._index: Dict[int, int] = {}
        self._valid_count = 0
        self._dirty_count = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, tag: int) -> Optional[int]:
        """Way index holding ``tag``, or None."""
        return self._index.get(tag)

    def touch(self, way: int) -> None:
        """Record a hit on ``way`` with the replacement policy."""
        self.policy.on_hit(way)

    # ------------------------------------------------------------------
    # Fill / eviction
    # ------------------------------------------------------------------
    def _invalid_way(self, allowed_ways: Optional[Sequence[int]]) -> Optional[int]:
        if self._valid_count == self.ways:
            return None
        candidates = range(self.ways) if allowed_ways is None else allowed_ways
        for way in candidates:
            if not self.lines[way].valid:
                return way
        return None

    def choose_victim(self, allowed_ways: Optional[Sequence[int]] = None) -> int:
        """Pick the way a fill will (re)use, preferring invalid ways.

        ``allowed_ways`` restricts the choice (way-partitioning defenses).
        Locked lines are never chosen.  Raises :class:`SimulationError` when
        every permitted way is locked — the PLcache "excessive locking"
        failure mode, surfaced loudly instead of silently mis-evicting.
        """
        invalid = self._invalid_way(allowed_ways)
        if invalid is not None:
            return invalid

        allowed = set(range(self.ways) if allowed_ways is None else allowed_ways)
        if not allowed:
            raise ConfigurationError("allowed_ways must not be empty")
        evictable = {way for way in allowed if not self.lines[way].locked}
        if not evictable:
            raise SimulationError(
                "no evictable way: all permitted ways are locked"
            )

        # Dirty-state hint for policies that model write-back-averse victim
        # selection (the E5-2650 surrogate).  Policies opt in through
        # ``wants_dirty_hint`` so the common path skips the tuple build.
        if self.policy.wants_dirty_hint:
            self.policy.notify_dirty_ways(
                tuple(line.valid and line.dirty for line in self.lines)
            )
        # Let the policy choose; nudge it off forbidden ways a bounded
        # number of times (a locked/foreign way behaves as "most recently
        # used" from the policy's viewpoint because it can never leave).
        for _ in range(4 * self.ways):
            way = self.policy.victim()
            if way in evictable:
                return way
            self.policy.on_hit(way)
        # Policy refuses to cooperate (can happen with degenerate states);
        # fall back to any evictable way deterministically.
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
        """Install ``tag`` into the set, returning the evicted line if any.

        ``address_of`` converts (tag, set_index) back into a line address so
        the hierarchy can route the write-back.
        """
        if tag in self._index:
            raise SimulationError(
                f"fill of tag {tag:#x} that is already present in the set"
            )
        way = self.choose_victim(allowed_ways)
        line = self.lines[way]
        evicted: Optional[EvictedLine] = None
        if line.valid:
            evicted = EvictedLine(
                address=address_of(line.tag, set_index),
                dirty=line.dirty,
                owner=line.owner,
            )
            del self._index[line.tag]
            self._valid_count -= 1
            if line.dirty:
                self._dirty_count -= 1
            self.policy.on_invalidate(way)
        elif line is EMPTY_LINE:
            line = self.lines[way] = CacheLine()
        line.tag = tag
        line.valid = True
        line.dirty = dirty
        line.locked = False
        line.owner = owner
        self._index[tag] = way
        self._valid_count += 1
        if dirty:
            self._dirty_count += 1
        self.policy.on_fill(way)
        return evicted

    def invalidate(self, tag: int) -> Optional[EvictedLine]:
        """Drop ``tag`` from the set (clflush), reporting its final state."""
        way = self._index.get(tag)
        if way is None:
            return None
        line = self.lines[way]
        snapshot = EvictedLine(address=-1, dirty=line.dirty, owner=line.owner)
        del self._index[tag]
        self._valid_count -= 1
        if line.dirty:
            self._dirty_count -= 1
        line.invalidate()
        self.policy.on_invalidate(way)
        return snapshot

    def invalidate_all(self) -> None:
        """Drop every line (cache-wide flush, e.g. a rekey).

        Dirty data is discarded without a write-back; callers model flushes
        whose write-back traffic is not observable (defense rekeys).
        """
        for way, line in enumerate(self.lines):
            if line.valid:
                line.invalidate()
                self.policy.on_invalidate(way)
        self._index.clear()
        self._valid_count = 0
        self._dirty_count = 0

    def mark_dirty(self, way: int) -> None:
        """Set the dirty bit of the (valid) line in ``way``."""
        line = self.lines[way]
        if not line.valid:
            raise SimulationError(f"mark_dirty on invalid way {way}")
        if not line.dirty:
            line.dirty = True
            self._dirty_count += 1

    def set_owner(self, way: int, owner: Optional[int]) -> None:
        """Record the hardware thread that last touched ``way``."""
        self.lines[way].owner = owner

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
        """(valid, dirty) recomputed by a fresh scan of the line array.

        Exists so tests can assert the incremental counters never drift
        from the ground truth; production code uses the O(1) counters.
        """
        valid = sum(1 for line in self.lines if line.valid)
        dirty = sum(1 for line in self.lines if line.valid and line.dirty)
        return valid, dirty

    def index_snapshot(self) -> Dict[int, int]:
        """Copy of the tag -> way index (exposed for the staleness tests)."""
        return dict(self._index)

    def resident_tags(self) -> List[int]:
        """Tags of all valid lines (unordered semantics, way order)."""
        return [line.tag for line in self.lines if line.valid]

    def way_states(self) -> Tuple[Tuple[bool, Optional[int], bool, bool, Optional[int]], ...]:
        """Normalised per-way snapshot for cross-engine comparisons.

        Invalid ways report ``(False, None, False, False, None)`` so stale
        tag values cannot create spurious differences between engines.
        """
        return tuple(
            (True, line.tag, line.dirty, line.locked, line.owner)
            if line.valid
            else (False, None, False, False, None)
            for line in self.lines
        )

    def lock(self, tag: int) -> bool:
        """Lock ``tag`` against eviction (PLcache); False if absent."""
        way = self._index.get(tag)
        if way is None:
            return False
        self.lines[way].locked = True
        return True

    def unlock(self, tag: int) -> bool:
        """Unlock ``tag``; False if absent."""
        way = self._index.get(tag)
        if way is None:
            return False
        self.lines[way].locked = False
        return True

    def randomize_policy_state(self) -> None:
        """Scramble replacement metadata (Table 2 initial conditions).

        The set's own policy generator is the only source of randomness.
        """
        self.policy.randomize_state()
