"""Multi-level cache hierarchy with latency accounting.

The hierarchy owns the walk across levels, the fill path, the write-back
routing, and — crucially for this paper — the latency composition rule:

* hit at level *k* costs ``hit_latency(k)``;
* an L1 fill whose victim is **dirty** additionally costs
  ``l1_writeback_penalty`` because the victim must drain to L2 before the
  fill completes (Table 4: 10-12 cycles over a clean victim vs 22-23 over a
  dirty one).

Write-backs below L1 are absorbed by write buffers by default
(``charge_deep_writebacks=False``): they update state but do not stall the
demand access, matching the observation that only the L1 replacement
latency is measurable from the pointer chase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.cache.cache import AllocationPolicy, Cache, WritePolicy
from repro.cache.latency import LatencyModel
from repro.cache.line import EvictedLine
from repro.cache.stats import CacheStats
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import CacheEvent, EventKind
from repro.telemetry.session import session_bus

#: Pseudo-level number reported when an access went all the way to DRAM.
MEMORY_LEVEL: int = 99

_HIT = EventKind.HIT
_MISS = EventKind.MISS
_EVICT = EventKind.EVICT
_WRITEBACK = EventKind.WRITEBACK
_FLUSH = EventKind.FLUSH


@runtime_checkable
class HierarchyFactory(Protocol):
    """Builds a hierarchy from the testbench's derived RNG.

    Defense evaluations inject PLcache/partitioned/write-through variants
    through this hook (see :class:`~repro.channels.testbench.TestbenchConfig`
    and :class:`~repro.channels.wb.protocol.WBChannelConfig`); the factory
    must be deterministic given the RNG it is handed.
    """

    def __call__(self, rng: random.Random) -> "CacheHierarchy":
        """Return a fresh hierarchy for one run."""
        ...


@dataclass(frozen=True)
class AccessTrace:
    """Everything observable about one demand access."""

    address: int
    write: bool
    #: 1 = L1 hit, 2 = L2 hit, ..., MEMORY_LEVEL = DRAM.
    hit_level: int
    #: Total cycles charged to the issuing thread.
    latency: int
    #: Whether the L1 fill had to replace a dirty victim — the paper's
    #: leaked bit of information.
    l1_victim_dirty: bool
    #: (level, evicted line) pairs, outermost first.
    evictions: Tuple[Tuple[int, EvictedLine], ...] = ()


def check_level_order(levels: Sequence) -> None:
    """Raise unless ``levels`` (caches or ``LevelParams``) grow shallow to deep."""
    if not levels:
        raise ConfigurationError("hierarchy needs at least one cache level")
    for shallower, deeper in zip(levels, levels[1:]):
        if deeper.size_bytes < shallower.size_bytes:
            raise ConfigurationError(
                f"{deeper.name} is smaller than {shallower.name}; "
                "levels must be ordered shallow to deep"
            )


class CacheHierarchy:
    """An ordered stack of caches over a fixed-latency DRAM."""

    def __init__(
        self,
        levels: List[Cache],
        latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        charge_deep_writebacks: bool = False,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        check_level_order(levels)
        self.levels = levels
        self.latency = latency or LatencyModel()
        self.rng = ensure_rng(rng)
        self.charge_deep_writebacks = charge_deep_writebacks
        self.stats = CacheStats()
        # Explicit bus wins; otherwise adopt the active telemetry
        # session's bus (None when no session is open — the zero-cost
        # default: hot paths then perform one attribute test and move on).
        self.telemetry = telemetry if telemetry is not None else session_bus()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def l1(self) -> Cache:
        """The innermost cache level."""
        return self.levels[0]

    def attach_telemetry(self, bus: TelemetryBus) -> TelemetryBus:
        """Attach ``bus`` (replacing any current one); returns it."""
        self.telemetry = bus
        return bus

    def detach_telemetry(self) -> Optional[TelemetryBus]:
        """Remove and return the current bus, if any."""
        bus = self.telemetry
        self.telemetry = None
        return bus

    def load(self, address: int, owner: Optional[int] = None) -> AccessTrace:
        """Demand load of ``address`` by hardware thread ``owner``."""
        return self.access(address, write=False, owner=owner)

    def store(self, address: int, owner: Optional[int] = None) -> AccessTrace:
        """Demand store to ``address`` by hardware thread ``owner``."""
        return self.access(address, write=True, owner=owner)

    def access(
        self, address: int, write: bool, owner: Optional[int] = None
    ) -> AccessTrace:
        """Perform one demand access and return its trace.

        Telemetry: with an enabled bus attached, the access advances the
        logical clock once and every observable action along the walk,
        fill and write-back paths emits a :class:`CacheEvent` stamped
        with that tick.  Emission never touches the RNG, so traced and
        untraced runs are bit-identical in every simulated observable.
        """
        evictions: List[Tuple[int, EvictedLine]] = []
        latency = self.latency.sample_jitter(self.rng)
        bus = self.telemetry
        if bus is not None and bus.enabled:
            emit = bus.emit
            now = bus.tick()
        else:
            emit = None
            now = 0

        hit_level = self._walk(address, owner, write=write, emit=emit, now=now)
        if hit_level == 1:
            latency += self.latency.hit_latency(1)
            l1_victim_dirty = False
            if write:
                latency += self._store_hit(address, owner)
        else:
            if hit_level == MEMORY_LEVEL:
                latency += self.latency.dram
                self.stats.memory_reads += 1
            else:
                latency += self.latency.hit_latency(hit_level)
            allocate = (not write) or (
                self.l1.allocation_policy is AllocationPolicy.WRITE_ALLOCATE
            )
            l1_victim_dirty = False
            if allocate:
                l1_victim_dirty, extra = self._fill_path(
                    address, hit_level, owner, evictions, emit=emit, now=now
                )
                latency += extra
                if write:
                    latency += self._store_hit(address, owner)
            else:
                # No-write-allocate store miss: write around the cache.
                self._propagate_store(0, address, owner)

        return AccessTrace(
            address=address,
            write=write,
            hit_level=hit_level,
            latency=latency,
            l1_victim_dirty=l1_victim_dirty,
            evictions=tuple(evictions),
        )

    def flush(self, address: int, owner: Optional[int] = None) -> int:
        """clflush semantics: evict ``address`` everywhere, write back dirty.

        The returned cycle cost is higher when the line was resident
        (``flush_present_extra``), which is the signal Flush+Flush decodes,
        plus write-back penalties for dirty copies.
        """
        cost = self.latency.flush_base + self.latency.sample_jitter(self.rng)
        bus = self.telemetry
        if bus is not None and bus.enabled:
            emit = bus.emit
            now = bus.tick()
        else:
            emit = None
            now = 0
        was_present = False
        for index, level in enumerate(self.levels):
            snapshot = level.invalidate(address)
            if snapshot is None:
                continue
            was_present = True
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _FLUSH, index + 1, level.set_index(address),
                        owner, address, False, snapshot.dirty,
                    )
                )
            if snapshot.dirty:
                # clflush forces dirty data all the way to memory (it will
                # be invalid at every cache level afterwards).
                self.stats.record_writeback(index + 1, owner)
                self.stats.memory_writes += 1
                cost += self.latency.writeback_penalty(index + 1)
                if emit is not None:
                    emit(
                        CacheEvent(
                            now, _WRITEBACK, index + 1,
                            level.set_index(address), owner, address,
                            False, True,
                        )
                    )
        if was_present:
            cost += self.latency.flush_present_extra
        return cost

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def probe_level(self, address: int) -> int:
        """Deepest-match-free probe: level where ``address`` resides."""
        for index, level in enumerate(self.levels):
            if level.probe(address):
                return index + 1
        return MEMORY_LEVEL

    def dirty_in_l1_set(self, set_index: int) -> int:
        """Dirty-line count of an L1 set (experiment introspection)."""
        return self.l1.dirty_lines_in_set(set_index)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _walk(
        self,
        address: int,
        owner: Optional[int],
        write: bool = False,
        emit=None,
        now: int = 0,
    ) -> int:
        """Find the hit level, recording access stats along the walk.

        With ``emit`` set, every level visited produces a HIT or MISS
        event; a HIT carries the resident line's dirty bit *before* any
        store of this access lands (the walk precedes the store path).
        """
        for index, level in enumerate(self.levels):
            hit = level.lookup(address, owner)
            self.stats.record_access(index + 1, owner, hit, write=write)
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _HIT if hit else _MISS, index + 1,
                        level.set_index(address), owner, address, write,
                        level.is_dirty(address) if hit else False,
                    )
                )
            if hit:
                return index + 1
        return MEMORY_LEVEL

    def _fill_path(
        self,
        address: int,
        hit_level: int,
        owner: Optional[int],
        evictions: List[Tuple[int, EvictedLine]],
        emit=None,
        now: int = 0,
    ) -> Tuple[bool, int]:
        """Install ``address`` into every level above ``hit_level``.

        Returns (L1 victim was dirty, extra latency charged).  With
        ``emit`` set, every victim produces an EVICT (clean) or
        WRITEBACK (dirty) event attributed to the victim's owner, in
        the set the incoming address maps to.
        """
        deepest_fill = (
            len(self.levels) if hit_level == MEMORY_LEVEL else hit_level - 1
        )
        l1_victim_dirty = False
        extra = 0
        # Fill outward-in so victims cascade naturally (L2 before L1 does
        # not matter structurally here, but inner-last keeps L1 state final).
        for index in range(deepest_fill - 1, -1, -1):
            level = self.levels[index]
            evicted = level.fill(address, dirty=False, owner=owner)
            if evicted is None:
                continue
            evictions.append((index + 1, evicted))
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _WRITEBACK if evicted.dirty else _EVICT,
                        index + 1, level.set_index(address), evicted.owner,
                        evicted.address, False, evicted.dirty,
                    )
                )
            if evicted.dirty:
                self.stats.record_writeback(index + 1, evicted.owner)
                self._writeback(
                    index + 1, evicted.address, evicted.owner,
                    emit=emit, now=now,
                )
                if index == 0:
                    l1_victim_dirty = True
                    extra += self.latency.writeback_penalty(1)
                elif self.charge_deep_writebacks:
                    extra += self.latency.writeback_penalty(index + 1)
        return l1_victim_dirty, extra

    def _writeback(
        self,
        from_level: int,
        address: int,
        owner: Optional[int],
        emit=None,
        now: int = 0,
    ) -> None:
        """Land a dirty victim evicted from ``from_level`` one level deeper."""
        index = from_level  # levels list index of the next deeper level
        if index >= len(self.levels):
            self.stats.memory_writes += 1
            return
        level = self.levels[index]
        if level.probe(address):
            level.mark_dirty(address)
            return
        evicted = level.fill(address, dirty=True, owner=owner)
        if evicted is None:
            return
        if emit is not None:
            emit(
                CacheEvent(
                    now, _WRITEBACK if evicted.dirty else _EVICT,
                    index + 1, level.set_index(address), evicted.owner,
                    evicted.address, False, evicted.dirty,
                )
            )
        if evicted.dirty:
            self.stats.record_writeback(index + 1, evicted.owner)
            self._writeback(
                index + 1, evicted.address, evicted.owner, emit=emit, now=now
            )

    def _store_hit(self, address: int, owner: Optional[int]) -> int:
        """Apply a store to the (normally resident) L1 line; returns cost.

        Defensive caches may *bypass* a fill (PLcache with every permitted
        way locked), leaving the line absent; the store is then forwarded
        downward like a no-write-allocate miss.
        """
        if not self.l1.probe(address):
            self._propagate_store(0, address, owner)
            return self.latency.write_through_store_penalty
        if self.l1.write_policy is WritePolicy.WRITE_BACK:
            self.l1.mark_dirty(address)
            return 0
        # Write-through: the L1 copy stays clean and the store is forwarded
        # synchronously toward the first write-back level (or memory).
        self._propagate_store(1, address, owner)
        return self.latency.write_through_store_penalty

    def _propagate_store(
        self, start_index: int, address: int, owner: Optional[int]
    ) -> None:
        """Push a store downward from ``levels[start_index]``.

        The store settles at the first write-back level that holds the line
        (marking it dirty).  Write-through levels holding the line stay
        clean and forward onward; levels missing the line are written
        around (no-write-allocate semantics for forwarded stores).
        """
        for index in range(start_index, len(self.levels)):
            level = self.levels[index]
            if not level.probe(address):
                continue
            if level.write_policy is WritePolicy.WRITE_BACK:
                level.mark_dirty(address)
                return
        self.stats.memory_writes += 1
