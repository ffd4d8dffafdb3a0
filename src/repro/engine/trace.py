"""Batched trace replay — the fast engine's bulk entry point.

Experiments and benchmarks that do not need the SMT co-simulation (no
timing interleave between threads, just a fixed access sequence) can hand
a whole trace to :func:`run_trace` instead of calling
``hierarchy.access`` per element from Python.

On a hierarchy built entirely from :class:`~repro.engine.fast_cache
.FastCache` levels with the paper's write-back / write-allocate policies,
:func:`run_trace` switches to a specialised inner loop that inlines the
level walk, the fill path and the statistics updates into one frame —
no per-access :class:`~repro.cache.hierarchy.AccessTrace` objects, no
method dispatch per level.  The loop is a line-for-line transcription of
:meth:`CacheHierarchy.access` (same RNG draws, same policy calls, same
counter updates, in the same order), so its observables are bit-identical
to the generic path; ``tests/test_engine_parity.py`` holds it to that.

Any other configuration — reference engine, write-through levels,
defense cache subclasses — replays through the generic per-access loop.
Both paths accept the same traces, which is what the differential parity
harness exploits: one trace, two engines, event streams compared
element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cache.cache import AllocationPolicy, WritePolicy
from repro.cache.hierarchy import MEMORY_LEVEL, CacheHierarchy
from repro.cache.stats import ALL_OWNERS

#: One trace element: (line address, is_write).
Access = Tuple[int, bool]


@dataclass
class TraceResult:
    """Flat, index-aligned observables of one replayed trace."""

    #: Level that served each access (1 = L1, ..., 99 = DRAM).
    hit_levels: List[int] = field(default_factory=list)
    #: Cycles charged to each access.
    latencies: List[int] = field(default_factory=list)
    #: Whether each access's L1 fill replaced a dirty victim — the
    #: paper's observable bit.
    dirty_evictions: List[bool] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        """Number of accesses replayed."""
        return len(self.hit_levels)

    @property
    def total_latency(self) -> int:
        """Sum of all per-access latencies."""
        return sum(self.latencies)

    @property
    def l1_hits(self) -> int:
        """Number of accesses served by L1."""
        return sum(1 for level in self.hit_levels if level == 1)

    @property
    def dirty_eviction_count(self) -> int:
        """Number of accesses whose L1 victim was dirty."""
        return sum(1 for flag in self.dirty_evictions if flag)

    def fingerprint(self) -> Tuple[int, int, int, int]:
        """Order-insensitive digest used by parity tests and benchmarks."""
        return (
            self.accesses,
            sum(self.hit_levels),
            self.total_latency,
            self.dirty_eviction_count,
        )


def _soa_eligible(hierarchy: CacheHierarchy) -> bool:
    """Whether the specialised struct-of-arrays loop applies.

    Exact FastCache levels only (defense subclasses carry extra hooks the
    inline loop would bypass) with the write-back + write-allocate pairing
    the inline store path assumes — and telemetry off: with an enabled
    bus the replay routes through the generic per-access path, which
    carries the emission sites.  That split is what keeps observability
    pay-for-what-you-use: the SoA loop never checks a bus per access,
    and ``scripts/bench_engine.py`` gates the telemetry-off speedup.
    """
    from repro.engine.fast_cache import FastCache

    if hierarchy.telemetry_enabled:
        return False
    return all(
        type(level) is FastCache
        and level.write_policy is WritePolicy.WRITE_BACK
        and level.allocation_policy is AllocationPolicy.WRITE_ALLOCATE
        for level in hierarchy.levels
    )


def _run_trace_soa(
    hierarchy: CacheHierarchy,
    accesses: Iterable[Access],
    owner: Optional[int],
) -> TraceResult:
    """Specialised replay over all-FastCache levels.

    Transcribes ``CacheHierarchy.access`` (walk, fill path, store hit,
    jitter, statistics) with every per-level quantity pre-bound.  Counter
    objects are fetched lazily on each level's first visit so the stats
    dictionaries end up with exactly the keys the generic path would
    create.
    """
    latency_model = hierarchy.latency
    jitter = latency_model.jitter
    rng_randint = hierarchy.rng.randint
    stats = hierarchy.stats
    keys = (ALL_OWNERS,) if owner is None else (owner, ALL_OWNERS)
    levels = hierarchy.levels
    num_levels = len(levels)
    # Per level: [sets, offset_bits, index_mask, tag_shift, address_of,
    #             counters-or-None, build_set].  A set slot stays None
    # until its first touch, which builds it.
    data = [
        [
            level._sets,
            level._offset_bits,
            level._index_mask,
            level._tag_shift,
            level._address_of,
            None,
            level._build_set,
        ]
        for level in levels
    ]
    hit_lat = [latency_model.hit_latency(i + 1) for i in range(num_levels)]
    dram = latency_model.dram
    l1_wb_penalty = latency_model.writeback_penalty(1)
    charge_deep = hierarchy.charge_deep_writebacks
    wb_penalty = [latency_model.writeback_penalty(i + 1) for i in range(num_levels)]
    record_writeback = stats.record_writeback
    writeback = hierarchy._writeback

    result = TraceResult()
    out_level = result.hit_levels.append
    out_latency = result.latencies.append
    out_dirty = result.dirty_evictions.append

    l1 = data[0]
    l1_sets, l1_offset, l1_mask, l1_shift = l1[0], l1[1], l1[2], l1[3]
    l1_build = l1[6]
    l1_hit_latency = hit_lat[0]
    memory_reads = 0

    for address, write in accesses:
        latency = rng_randint(0, jitter) if jitter else 0

        # --- walk, L1 step unrolled -----------------------------------
        l1_index = (address >> l1_offset) & l1_mask
        cache_set = l1_sets[l1_index]
        if cache_set is None:
            cache_set = l1_build(l1_index)
        way = cache_set._index.get(address >> l1_shift)
        counters = l1[5]
        if counters is None:
            counters = l1[5] = tuple(stats._counters[1][key] for key in keys)
        if way is not None:
            cache_set.pol.on_hit(way)
            if owner is not None:
                cache_set.owners[way] = owner
            for counter in counters:
                counter.accesses += 1
                counter.hits += 1
                if write:
                    counter.stores += 1
            latency += l1_hit_latency
            if write:
                cache_set.mark_dirty(way)
            out_level(1)
            out_latency(latency)
            out_dirty(False)
            continue
        for counter in counters:
            counter.accesses += 1
            if write:
                counter.stores += 1

        hit_level = MEMORY_LEVEL
        for index in range(1, num_levels):
            entry = data[index]
            deep_index = (address >> entry[1]) & entry[2]
            deep_set = entry[0][deep_index]
            if deep_set is None:
                deep_set = entry[6](deep_index)
            deep_way = deep_set._index.get(address >> entry[3])
            hit = deep_way is not None
            counters = entry[5]
            if counters is None:
                counters = entry[5] = tuple(
                    stats._counters[index + 1][key] for key in keys
                )
            for counter in counters:
                counter.accesses += 1
                if hit:
                    counter.hits += 1
                if write:
                    counter.stores += 1
            if hit:
                deep_set.pol.on_hit(deep_way)
                if owner is not None:
                    deep_set.owners[deep_way] = owner
                hit_level = index + 1
                break

        # --- fill path (every set on it was built by the walk) ---------
        if hit_level == MEMORY_LEVEL:
            latency += dram
            memory_reads += 1
            deepest_fill = num_levels
        else:
            latency += hit_lat[hit_level - 1]
            deepest_fill = hit_level - 1
        l1_victim_dirty = False
        for index in range(deepest_fill - 1, -1, -1):
            entry = data[index]
            set_index = (address >> entry[1]) & entry[2]
            evicted = entry[0][set_index].fill(
                address >> entry[3], False, owner, set_index, entry[4], None
            )
            if evicted is None:
                continue
            if evicted.dirty:
                record_writeback(index + 1, evicted.owner)
                writeback(index + 1, evicted.address, evicted.owner)
                if index == 0:
                    l1_victim_dirty = True
                    latency += l1_wb_penalty
                elif charge_deep:
                    latency += wb_penalty[index]
        if write:
            # The line was just installed at L1 (write-allocate), so the
            # store hit path reduces to marking it dirty.
            cache_set.mark_dirty(cache_set._index[address >> l1_shift])
        out_level(hit_level)
        out_latency(latency)
        out_dirty(l1_victim_dirty)

    stats.memory_reads += memory_reads
    return result


def run_trace(
    hierarchy: CacheHierarchy,
    accesses: Iterable[Access],
    owner: Optional[int] = None,
) -> TraceResult:
    """Replay ``accesses`` through ``hierarchy``, collecting observables.

    ``accesses`` is any iterable of ``(address, is_write)`` pairs;
    ``owner`` is attributed to every access (the batched path models a
    single-threaded replay — interleaved multi-thread runs belong to the
    SMT co-simulation).  All-FastCache hierarchies take the specialised
    struct-of-arrays loop; everything else replays through the public
    per-access API.  Results are bit-identical either way.
    """
    if _soa_eligible(hierarchy):
        return _run_trace_soa(hierarchy, accesses, owner)
    result = TraceResult()
    access = hierarchy.access
    out_level = result.hit_levels.append
    out_latency = result.latencies.append
    out_dirty = result.dirty_evictions.append
    for address, write in accesses:
        trace = access(address, write, owner)
        out_level(trace.hit_level)
        out_latency(trace.latency)
        out_dirty(trace.l1_victim_dirty)
    return result


def run_trace_summary(
    hierarchy: CacheHierarchy,
    accesses: Iterable[Access],
    owner: Optional[int] = None,
) -> Tuple[int, int, int, int]:
    """Replay ``accesses`` and return just the fingerprint tuple.

    ``(accesses, hit_level_sum, total_latency, dirty_evictions)`` — the
    benchmark loop's shape.
    """
    return run_trace(hierarchy, accesses, owner).fingerprint()


def event_stream(
    hierarchy: CacheHierarchy,
    accesses: Sequence[Access],
    owner: Optional[int] = None,
) -> List[Tuple[int, int, bool, Tuple[Tuple[int, int, bool], ...]]]:
    """Full per-access event tuples for differential comparisons.

    Each element is ``(hit_level, latency, l1_victim_dirty, evictions)``
    with evictions as ``(level, victim_address, victim_dirty)`` tuples —
    everything two engines must agree on, access by access.  Always uses
    the generic per-access path: this is the oracle view the specialised
    loop is checked against.
    """
    events = []
    access = hierarchy.access
    for address, write in accesses:
        trace = access(address, write, owner)
        events.append(
            (
                trace.hit_level,
                trace.latency,
                trace.l1_victim_dirty,
                tuple(
                    (level, line.address, line.dirty)
                    for level, line in trace.evictions
                ),
            )
        )
    return events
