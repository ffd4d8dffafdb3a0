"""A single set-associative cache level.

Structural behaviour only: the cache answers "hit or miss", installs lines,
and reports evictions; latency accounting and the walk across levels live in
:mod:`repro.cache.hierarchy`.  Write policy (write-back vs write-through)
and allocation policy (write-allocate vs no-write-allocate) are modelled
here because they decide *whether a dirty bit ever exists* — the paper's
Section 8 points out that a write-through cache removes the channel
entirely.
"""

from __future__ import annotations

import collections.abc
import enum
import random
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import LazyRandom, ensure_rng, mix_label
from repro.cache.cache_set import CacheSet
from repro.cache.line import EvictedLine
from repro.mem.address import AddressLayout
from repro.replacement.base import PolicyFactory


class WritePolicy(enum.Enum):
    """When stores reach the next level."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


class AllocationPolicy(enum.Enum):
    """Whether a store miss installs the line."""

    WRITE_ALLOCATE = "write-allocate"
    NO_WRITE_ALLOCATE = "no-write-allocate"


def cache_layout(
    name: str, size_bytes: int, associativity: int, line_size: int
) -> AddressLayout:
    """The address layout of a cache level; raises what :class:`Cache` would."""
    if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
        raise ConfigurationError("cache geometry values must be positive")
    if size_bytes % (associativity * line_size) != 0:
        raise ConfigurationError(
            f"{name}: size {size_bytes} is not sets*ways*line_size "
            f"with ways={associativity}, line={line_size}"
        )
    num_sets = size_bytes // (associativity * line_size)
    if num_sets & (num_sets - 1):
        raise ConfigurationError(
            f"{name}: derived set count {num_sets} is not a power of two"
        )
    return AddressLayout(line_size=line_size, num_sets=num_sets)


class Cache:
    """One level of a set-associative cache.

    Parameters
    ----------
    name:
        Diagnostic label, e.g. ``"L1D"``.
    size_bytes, associativity, line_size:
        Geometry; ``size = sets * ways * line_size`` must hold exactly.
    policy_factory:
        ``factory(ways, rng) -> ReplacementPolicy``; one instance per set,
        made when the set is built on its first touch, with ``rng`` a
        :class:`~repro.common.rng.LazyRandom` over the set's seed (see
        :class:`~repro.replacement.base.ReplacementPolicy` on its use).
    write_policy, allocation_policy:
        Store semantics; the paper's target configuration is write-back +
        write-allocate (the near-universal pairing, Section 2.2).
    """

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
        self.layout = cache_layout(name, size_bytes, associativity, line_size)
        num_sets = self.layout.num_sets
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.write_policy = write_policy
        self.allocation_policy = allocation_policy
        self._policy_factory = policy_factory
        # One draw holds the 32-bit words that ``num_sets`` sequential
        # ``derive_rng(master, ...)`` calls would take, and leaves
        # ``master`` where they would (see ``mix_label``).
        self._set_words = ensure_rng(rng).getrandbits(32 * num_sets)
        #: Set i, or None until its first touch (``_build_set``).
        self._sets: List[Optional[CacheSet]] = [None] * num_sets
        # A policy that rejects the geometry must fail here, not on the
        # first access.
        self._build_set(0)

    def _build_set(self, index: int) -> CacheSet:
        """Build set ``index``; hot paths call this when its slot is None.

        Its policy RNG is ``Random(word_i ^ crc32(f"{name}/set{i}"))``
        with ``word_i`` the i-th 32-bit word of the constructor's draw:
        the generator an eager ``derive_rng(master, f"{name}/set{i}")``
        in set order would have made, whatever order sets are touched in.
        It is handed over as a :class:`~repro.common.rng.LazyRandom`, so
        a set whose policy never draws never builds it.
        """
        word = (self._set_words >> (32 * index)) & 0xFFFFFFFF
        rng = LazyRandom(mix_label(word, f"{self.name}/set{index}"))
        cache_set = self._make_set(self.associativity, rng)
        self._sets[index] = cache_set
        return cache_set

    def _make_set(self, ways: int, rng: random.Random) -> CacheSet:
        """Set-construction hook; the fast engine substitutes its SoA set.

        Called by :meth:`_build_set` on a set's first touch.  Overriders
        must return an object with the :class:`CacheSet` public surface
        (``find``/``fill``/``invalidate``/counters/locking) and hand the
        per-set RNG to their policy, so both engines draw identical
        random streams.
        """
        return CacheSet(ways, self._policy_factory(ways, rng))

    @property
    def sets(self) -> SetView:
        """All ``num_sets`` sets, each built when first read."""
        return SetView(self)

    def _set_at(self, index: int) -> CacheSet:
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._build_set(index)
        return cache_set

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.layout.num_sets

    def set_for(self, address: int) -> CacheSet:
        """The set that ``address`` maps to."""
        return self._set_at(self.set_index(address))

    def set_index(self, address: int) -> int:
        """Set index of ``address`` (hook point for randomized mapping)."""
        return self.layout.set_index(address)

    def tag_of(self, address: int) -> int:
        """Tag bits identifying a line within its set.

        The classic split drops the index bits from the tag because
        (tag, index) is unique.  Caches that permute the index (the
        randomized-mapping defense) must override this with a full-width
        tag, or two lines sharing the classic tag could alias within one
        permuted set.
        """
        return self.layout.tag(address)

    def _address_of(self, tag: int, set_index: int) -> int:
        return self.layout.compose(tag, set_index)

    # ------------------------------------------------------------------
    # Structural operations (no latency here)
    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Whether ``address`` currently hits, without touching metadata."""
        return self.set_for(address).find(self.tag_of(address)) is not None

    def is_dirty(self, address: int) -> bool:
        """Whether ``address`` is resident and dirty."""
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        return way is not None and cache_set.lines[way].dirty

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        """Demand access metadata update: True on hit (touches policy)."""
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        if way is None:
            return False
        cache_set.touch(way)
        if owner is not None:
            cache_set.set_owner(way, owner)
        return True

    def mark_dirty(self, address: int) -> None:
        """Set the dirty bit of a resident line (write hit, write-back)."""
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        if way is None:
            raise ConfigurationError(
                f"{self.name}: mark_dirty on non-resident {address:#x}"
            )
        cache_set.mark_dirty(way)

    def allowed_ways(self, owner: Optional[int]) -> Optional[Sequence[int]]:
        """Way mask for ``owner`` (None = all ways).

        The base cache is unpartitioned; the way-partitioning defense
        subclasses override this.
        """
        del owner
        return None

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        """Install the line of ``address``; returns the eviction, if any."""
        set_index = self.set_index(address)
        return self._set_at(set_index).fill(
            tag=self.tag_of(address),
            dirty=dirty,
            owner=owner,
            set_index=set_index,
            address_of=self._address_of,
            allowed_ways=self.allowed_ways(owner),
        )

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        """Drop the line of ``address`` (clflush); returns its final state."""
        return self.set_for(address).invalidate(self.tag_of(address))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dirty_lines_in_set(self, set_index: int) -> int:
        """Dirty-line count of a set (experiments peek at the target set)."""
        if not 0 <= set_index < self.num_sets:
            raise ConfigurationError(f"set_index {set_index} out of range")
        return self._set_at(set_index).dirty_count()

    def describe(self) -> Dict[str, object]:
        """Human-readable configuration summary."""
        return {
            "name": self.name,
            "size_bytes": self.size_bytes,
            "associativity": self.associativity,
            "line_size": self.layout.line_size,
            "num_sets": self.num_sets,
            "write_policy": self.write_policy.value,
            "allocation_policy": self.allocation_policy.value,
        }


class SetView(collections.abc.Sequence):
    """Read-only sequence over a cache's sets, building each on access.

    Tests, invariant checkers and defenses read sets through this view;
    the hot paths index the cache's own list and build on ``None``.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: Cache) -> None:
        self._cache = cache

    def __len__(self) -> int:
        return len(self._cache._sets)

    def __getitem__(self, index):
        # ``range`` normalises negative indices and slices, and raises
        # the IndexError/TypeError a list would.
        positions = range(len(self._cache._sets))[index]
        if isinstance(positions, range):
            return [self._cache._set_at(i) for i in positions]
        return self._cache._set_at(positions)
