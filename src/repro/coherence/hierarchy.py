"""N private L1Ds over shared levels, kept coherent by a MESI directory.

:class:`CoherentHierarchy` presents the same surface as
:class:`~repro.cache.hierarchy.CacheHierarchy` — ``access``/``load``/
``store``, latency accounting, :class:`~repro.cache.stats.CacheStats`,
telemetry attachment — so programs, the SMT core and the channel testbench
drive it unchanged.  Requests are routed to a core by the accessing
*owner* (hardware thread id): ``core = owner % num_cores``.  The SMT
core's global-clock interleaving hands the hierarchy one access at a
time, which is the snoop/directory interconnect's serialisation.

Timing model (the paper's Table 4 numbers, extended across cores):

* private L1 hit — ``l1_hit``, exactly as in the single-core model;
* L1 miss served by the shared L2 — ``l2_hit``;
* if the miss found the line **Modified in another core's L1**, that
  copy must first drain into the L2 (the M→S / M→I downgrade
  write-back), adding ``l1_writeback_penalty`` to the requester — the
  same dirty-victim stall the single-core channel measures, now visible
  *across* cores.  This is the cross-core channel's signal
  (:mod:`repro.channels.wb.cross_core`).

The shared L2 is **inclusive** of the private L1s: an L2 eviction
back-invalidates every L1 copy of the victim line (merging dirty data
into the write-back).  Deeper shared levels follow the single-core
model's non-inclusive behaviour.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.cache import AllocationPolicy, Cache, WritePolicy
from repro.cache.hierarchy import MEMORY_LEVEL, AccessTrace
from repro.cache.latency import LatencyModel
from repro.cache.line import EvictedLine
from repro.cache.stats import CacheStats
from repro.coherence.mesi import CoherenceStats, Directory, MESIState
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import CacheEvent, EventKind
from repro.telemetry.session import session_bus

_HIT = EventKind.HIT
_MISS = EventKind.MISS
_EVICT = EventKind.EVICT
_WRITEBACK = EventKind.WRITEBACK


def check_private_l1s(l1s: Sequence, shared: Sequence) -> None:
    """Raise unless MESI can keep per-core ``l1s`` over ``shared`` coherent.

    Levels are caches or ``LevelParams`` (whose policies are enum values)."""
    if not l1s:
        raise ConfigurationError("coherent hierarchy needs at least one L1")
    if not shared:
        raise ConfigurationError(
            "coherent hierarchy needs a shared level below the L1s "
            "(the inclusive L2)"
        )
    for l1 in l1s:
        if WritePolicy(l1.write_policy) is not WritePolicy.WRITE_BACK:
            raise ConfigurationError(
                f"{l1.name}: MESI coherence models write-back L1s only "
                "(a write-through L1 has no Modified state)"
            )
        allocation = AllocationPolicy(l1.allocation_policy)
        if allocation is not AllocationPolicy.WRITE_ALLOCATE:
            raise ConfigurationError(
                f"{l1.name}: MESI coherence models write-allocate L1s only"
            )
        if l1.size_bytes > shared[0].size_bytes:
            raise ConfigurationError(
                f"inclusive {shared[0].name} is smaller than {l1.name}"
            )


class CoherentHierarchy:
    """Per-core private L1s over shared levels with MESI coherence."""

    def __init__(
        self,
        l1s: List[Cache],
        shared: List[Cache],
        latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        check_private_l1s(l1s, shared)
        line_size = l1s[0].layout.line_size
        for cache in l1s + shared:
            if cache.layout.line_size != line_size:
                raise ConfigurationError(
                    f"{cache.name}: line size {cache.layout.line_size} != "
                    f"{line_size}; all levels must agree"
                )
        self.l1s = l1s
        self.shared = shared
        self.num_cores = len(l1s)
        self.latency = latency or LatencyModel()
        self.rng = ensure_rng(rng)
        # Coherence write-backs are charged where they stall the requester
        # (the downgrade path); the flag exists for surface compatibility
        # with CacheHierarchy and deep capacity write-backs.
        self.charge_deep_writebacks = False
        self.stats = CacheStats()
        self.directory = Directory(line_size)
        self.coherence = CoherenceStats()
        self.telemetry = telemetry if telemetry is not None else session_bus()

    # ------------------------------------------------------------------
    # CacheHierarchy-compatible surface
    # ------------------------------------------------------------------
    @property
    def levels(self) -> List[Cache]:
        """Core 0's view of the stack (introspection compatibility)."""
        return [self.l1s[0]] + list(self.shared)

    @property
    def l1(self) -> Cache:
        """Core 0's private L1 (what set builders take layouts from)."""
        return self.l1s[0]

    def l1_of(self, core: int) -> Cache:
        """The private L1 of ``core``."""
        return self.l1s[core]

    def core_of(self, owner: Optional[int]) -> int:
        """Core an access by hardware thread ``owner`` executes on."""
        if owner is None:
            return 0
        return owner % self.num_cores

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
        """One demand access on the owner's core, coherence included."""
        core = self.core_of(owner)
        l1 = self.l1s[core]
        evictions: List[Tuple[int, EvictedLine]] = []
        latency = self.latency.sample_jitter(self.rng)
        bus = self.telemetry
        if bus is not None:
            emit = bus.emit
            now = bus.tick()
        else:
            emit = None
            now = 0

        hit = l1.lookup(address, owner)
        self.stats.record_access(1, owner, hit, write=write)
        if emit is not None:
            emit(
                CacheEvent(
                    now, _HIT if hit else _MISS, 1, l1.set_index(address),
                    owner, address, write,
                    l1.is_dirty(address) if hit else False,
                )
            )
        if hit:
            latency += self.latency.hit_latency(1)
            if write:
                self._store_upgrade(core, address, owner, emit, now)
            return AccessTrace(
                address=address,
                write=write,
                hit_level=1,
                latency=latency,
                l1_victim_dirty=False,
                evictions=(),
            )

        # L1 miss: the request goes over the interconnect.  The directory
        # serialises it against every other core's copies first.
        downgrade_wb = self._snoop(core, address, write, emit, now)

        hit_level = MEMORY_LEVEL
        for index, cache in enumerate(self.shared):
            level_no = index + 2
            shared_hit = cache.lookup(address, owner)
            self.stats.record_access(level_no, owner, shared_hit, write=write)
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _HIT if shared_hit else _MISS, level_no,
                        cache.set_index(address), owner, address, write,
                        cache.is_dirty(address) if shared_hit else False,
                    )
                )
            if shared_hit:
                hit_level = level_no
                break
        if hit_level == MEMORY_LEVEL:
            latency += self.latency.dram
            self.stats.memory_reads += 1
        else:
            latency += self.latency.hit_latency(hit_level)
        if downgrade_wb:
            # The downgraded copy drains into the L2 before the requester's
            # fill completes — the cross-core dirty-state timing signal.
            latency += self.latency.writeback_penalty(1)

        latency += self._fill_shared(
            address, hit_level, owner, evictions, emit, now
        )
        l1_victim_dirty, extra = self._fill_l1(
            core, address, owner, evictions, emit, now
        )
        latency += extra

        line = self.directory.line_address(address)
        if write:
            l1.mark_dirty(address)
            self.directory.set_state(core, line, MESIState.MODIFIED)
        elif self.directory.holders(line, exclude=core):
            self.directory.set_state(core, line, MESIState.SHARED)
        else:
            self.directory.set_state(core, line, MESIState.EXCLUSIVE)

        return AccessTrace(
            address=address,
            write=write,
            hit_level=hit_level,
            latency=latency,
            l1_victim_dirty=l1_victim_dirty,
            evictions=tuple(evictions),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def probe_level(self, address: int) -> int:
        """Shallowest level holding ``address`` on any core."""
        if any(l1.probe(address) for l1 in self.l1s):
            return 1
        for index, cache in enumerate(self.shared):
            if cache.probe(address):
                return index + 2
        return MEMORY_LEVEL

    def dirty_in_l1_set(self, set_index: int, core: int = 0) -> int:
        """Dirty-line count of one core's L1 set (default core 0)."""
        return self.l1s[core].dirty_lines_in_set(set_index)

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` on any broken MESI invariant.

        Checked: single M/E ownership (directory-side), directory/cache
        agreement (resident ⟺ tracked, dirty ⟺ M), and L2 inclusion of
        every L1-resident line.  O(total lines); meant for tests, not the
        access hot path.
        """
        self.directory.check()
        l2 = self.shared[0]
        tracked = {
            (line, core)
            for line, entry in self.directory
            for core in entry
        }
        resident = set()
        for core, l1 in enumerate(self.l1s):
            layout = l1.layout
            for set_index, cache_set in enumerate(l1.sets):
                for valid, tag, dirty, _locked, _owner in cache_set.way_states():
                    if not valid:
                        continue
                    line = layout.compose(tag, set_index)
                    resident.add((line, core))
                    state = self.directory.state(core, line)
                    if state is None:
                        raise SimulationError(
                            f"core {core} holds line {line:#x} unknown to "
                            "the directory"
                        )
                    if dirty and state is not MESIState.MODIFIED:
                        raise SimulationError(
                            f"core {core} line {line:#x} dirty in state "
                            f"{state.value} (dirty ⇒ M violated)"
                        )
                    if state is MESIState.MODIFIED and not dirty:
                        raise SimulationError(
                            f"core {core} line {line:#x} clean in state M"
                        )
                    if not l2.probe(line):
                        raise SimulationError(
                            f"inclusion violated: core {core} holds line "
                            f"{line:#x} absent from {l2.name}"
                        )
        stale = tracked - resident
        if stale:
            line, core = sorted(stale)[0]
            raise SimulationError(
                f"directory tracks core {core} on line {line:#x} but the "
                "L1 does not hold it"
            )

    # ------------------------------------------------------------------
    # Protocol internals
    # ------------------------------------------------------------------
    def _snoop(
        self, core: int, address: int, write: bool, emit, now: int
    ) -> bool:
        """Resolve remote copies before ``core``'s miss fill.

        Returns True when a Modified copy had to drain into the shared
        L2 (the downgrade write-back whose latency the requester pays).
        """
        line = self.directory.line_address(address)
        downgrade_wb = False
        for other in self.directory.holders(line, exclude=core):
            state = self.directory.state(other, line)
            other_l1 = self.l1s[other]
            if state is MESIState.MODIFIED:
                self.stats.record_writeback(1, other)
                self.coherence.coherence_writebacks += 1
                self._writeback_shared(0, line, other, emit, now)
                if emit is not None:
                    emit(
                        CacheEvent(
                            now, _WRITEBACK, 1, other_l1.set_index(line),
                            other, line, False, True,
                        )
                    )
                downgrade_wb = True
            if write:
                # RFO: every remote copy is invalidated (its dirty data,
                # if any, was written back just above).
                other_l1.invalidate(address)
                self.directory.clear(other, line)
                self.coherence.invalidations += 1
                if state is MESIState.MODIFIED:
                    self.coherence.downgrades_m_to_i += 1
                if emit is not None:
                    emit(
                        CacheEvent(
                            now, _EVICT, 1, other_l1.set_index(line),
                            other, line, False, False,
                        )
                    )
            elif state is MESIState.MODIFIED:
                # M→S: the copy stays resident but clean.  The caches
                # have no clear-dirty primitive, so reinstall the line
                # clean into the way the invalidation just freed.
                other_l1.invalidate(address)
                other_l1.fill(address, dirty=False, owner=other)
                self.directory.set_state(other, line, MESIState.SHARED)
                self.coherence.downgrades_m_to_s += 1
            elif state is MESIState.EXCLUSIVE:
                self.directory.set_state(other, line, MESIState.SHARED)
                self.coherence.downgrades_e_to_s += 1
        return downgrade_wb

    def _store_upgrade(
        self, core: int, address: int, owner: Optional[int], emit, now: int
    ) -> None:
        """Store hit in ``core``'s L1: S→M (invalidating sharers) or E/M→M."""
        line = self.directory.line_address(address)
        state = self.directory.state(core, line)
        if state is None:
            raise SimulationError(
                f"core {core} store-hit on line {line:#x} unknown to the "
                "directory"
            )
        if state is MESIState.SHARED:
            self.coherence.upgrades_s_to_m += 1
            for other in self.directory.holders(line, exclude=core):
                # Shared copies are clean: invalidate, no write-back.
                self.l1s[other].invalidate(address)
                self.directory.clear(other, line)
                self.coherence.invalidations += 1
                if emit is not None:
                    emit(
                        CacheEvent(
                            now, _EVICT, 1,
                            self.l1s[other].set_index(line), other, line,
                            False, False,
                        )
                    )
        self.l1s[core].mark_dirty(address)
        self.directory.set_state(core, line, MESIState.MODIFIED)

    def _fill_shared(
        self,
        address: int,
        hit_level: int,
        owner: Optional[int],
        evictions: List[Tuple[int, EvictedLine]],
        emit,
        now: int,
    ) -> int:
        """Install ``address`` into the shared levels above ``hit_level``."""
        deepest_fill = (
            len(self.shared) if hit_level == MEMORY_LEVEL else hit_level - 2
        )
        extra = 0
        for index in range(deepest_fill - 1, -1, -1):
            cache = self.shared[index]
            evicted = cache.fill(address, dirty=False, owner=owner)
            if evicted is None:
                continue
            level_no = index + 2
            evictions.append((level_no, evicted))
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _WRITEBACK if evicted.dirty else _EVICT,
                        level_no, cache.set_index(address), evicted.owner,
                        evicted.address, False, evicted.dirty,
                    )
                )
            dirty = evicted.dirty
            if index == 0:
                dirty = self._back_invalidate(evicted.address, emit, now) or dirty
            if dirty:
                self.stats.record_writeback(level_no, evicted.owner)
                self._writeback_shared(
                    index + 1, evicted.address, evicted.owner, emit, now
                )
                if self.charge_deep_writebacks:
                    extra += self.latency.writeback_penalty(level_no)
        return extra

    def _fill_l1(
        self,
        core: int,
        address: int,
        owner: Optional[int],
        evictions: List[Tuple[int, EvictedLine]],
        emit,
        now: int,
    ) -> Tuple[bool, int]:
        """Install ``address`` into ``core``'s L1; handle the victim."""
        l1 = self.l1s[core]
        evicted = l1.fill(address, dirty=False, owner=owner)
        if evicted is None:
            return False, 0
        evictions.append((1, evicted))
        self.directory.clear(core, evicted.address)
        if emit is not None:
            emit(
                CacheEvent(
                    now, _WRITEBACK if evicted.dirty else _EVICT, 1,
                    l1.set_index(address), evicted.owner, evicted.address,
                    False, evicted.dirty,
                )
            )
        if not evicted.dirty:
            return False, 0
        self.stats.record_writeback(1, evicted.owner)
        self._writeback_shared(0, evicted.address, evicted.owner, emit, now)
        return True, self.latency.writeback_penalty(1)

    def _back_invalidate(self, address: int, emit, now: int) -> bool:
        """Inclusion: a line leaving the L2 leaves every L1 with it.

        Returns True when a dirty (Modified) L1 copy was merged into the
        departing line, making the final write-back dirty.
        """
        merged_dirty = False
        for core in self.directory.holders(address):
            l1 = self.l1s[core]
            snapshot = l1.invalidate(address)
            self.directory.clear(core, address)
            self.coherence.back_invalidations += 1
            if emit is not None:
                emit(
                    CacheEvent(
                        now, _EVICT, 1, l1.set_index(address), core,
                        address, False,
                        bool(snapshot is not None and snapshot.dirty),
                    )
                )
            if snapshot is not None and snapshot.dirty:
                self.stats.record_writeback(1, core)
                merged_dirty = True
        return merged_dirty

    def _writeback_shared(
        self, index: int, address: int, owner: Optional[int], emit, now: int
    ) -> None:
        """Land a dirty line in ``shared[index]`` (or memory past the end)."""
        if index >= len(self.shared):
            self.stats.memory_writes += 1
            return
        cache = self.shared[index]
        if cache.probe(address):
            cache.mark_dirty(address)
            return
        evicted = cache.fill(address, dirty=True, owner=owner)
        if evicted is None:
            return
        level_no = index + 2
        if emit is not None:
            emit(
                CacheEvent(
                    now, _WRITEBACK if evicted.dirty else _EVICT, level_no,
                    cache.set_index(address), evicted.owner,
                    evicted.address, False, evicted.dirty,
                )
            )
        dirty = evicted.dirty
        if index == 0:
            dirty = self._back_invalidate(evicted.address, emit, now) or dirty
        if dirty:
            self.stats.record_writeback(level_no, evicted.owner)
            self._writeback_shared(
                index + 1, evicted.address, evicted.owner, emit, now
            )


def make_coherent_hierarchy(
    *,
    cores: int,
    levels,
    line_size: int,
    rng: Optional[random.Random] = None,
    engine: Optional[str] = None,
    latency: Optional[LatencyModel] = None,
) -> CoherentHierarchy:
    """Build a coherent hierarchy from :class:`LevelParams`-style levels.

    ``levels[0]`` is replicated into one private L1 per core (RNG labels
    ``l1/core0`` … so replicas draw independent policy streams);
    ``levels[1:]`` become the shared L2/LLC with the historic ``l2`` /
    ``llc`` labels.  Called by
    :meth:`repro.cache.configs.HierarchyParams.build` when ``cores > 1``.
    """
    from repro.cache.configs import _LEVEL_RNG_KEYS, _cache_class
    from repro.replacement.registry import make_policy_factory

    if cores < 2:
        raise ConfigurationError(
            f"make_coherent_hierarchy needs cores >= 2, got {cores}"
        )
    if len(levels) < 2:
        raise ConfigurationError(
            "a coherent hierarchy needs a shared level below the L1s"
        )
    cache_cls = _cache_class(engine)
    master = ensure_rng(rng)
    l1_level = levels[0]
    l1s = [
        cache_cls(
            name=f"{l1_level.name}-c{core}",
            size_bytes=l1_level.size_bytes,
            associativity=l1_level.ways,
            line_size=line_size,
            policy_factory=make_policy_factory(l1_level.policy),
            write_policy=WritePolicy(l1_level.write_policy),
            allocation_policy=AllocationPolicy(l1_level.allocation_policy),
            rng=derive_rng(master, f"l1/core{core}"),
        )
        for core in range(cores)
    ]
    shared = [
        cache_cls(
            name=level.name,
            size_bytes=level.size_bytes,
            associativity=level.ways,
            line_size=line_size,
            policy_factory=make_policy_factory(level.policy),
            write_policy=WritePolicy(level.write_policy),
            allocation_policy=AllocationPolicy(level.allocation_policy),
            rng=derive_rng(master, _LEVEL_RNG_KEYS[index + 1]),
        )
        for index, level in enumerate(levels[1:])
    ]
    return CoherentHierarchy(
        l1s=l1s,
        shared=shared,
        latency=latency,
        rng=derive_rng(master, "hierarchy"),
    )
