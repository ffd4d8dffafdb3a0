"""Defense mechanics: each cache variant's structural behaviour."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.defenses import (
    PLCache,
    RandomFillCache,
    RandomizedMappingCache,
    WayPartitionedCache,
    make_partitioned_hierarchy,
    make_plcache_hierarchy,
    make_random_fill_hierarchy,
    make_randomized_mapping_hierarchy,
    make_write_through_hierarchy,
)
from repro.defenses.partitioned import split_ways_evenly
from repro.defenses.randomized_mapping import find_eviction_set
from repro.mem.address_space import AddressSpace, FrameAllocator
from repro.mem.sets import build_set_conflicting_lines
from repro.replacement.registry import make_policy_factory


class TestPLCache:
    def test_protected_fills_are_locked(self):
        hierarchy = make_plcache_hierarchy(protected_owners=(0,), rng=random.Random(0))
        hierarchy.load(0x1000, owner=0)
        l1 = hierarchy.l1
        cache_set = l1.set_for(0x1000)
        way = cache_set.find(l1.layout.tag(0x1000))
        assert cache_set.lines[way].locked

    def test_unprotected_fills_not_locked(self):
        hierarchy = make_plcache_hierarchy(protected_owners=(0,), rng=random.Random(0))
        hierarchy.load(0x1000, owner=1)
        l1 = hierarchy.l1
        cache_set = l1.set_for(0x1000)
        way = cache_set.find(l1.layout.tag(0x1000))
        assert not cache_set.lines[way].locked

    def test_receiver_cannot_evict_locked_dirty_line(self):
        hierarchy = make_plcache_hierarchy(protected_owners=(0,), rng=random.Random(0))
        allocator = FrameAllocator()
        victim_space = AddressSpace(pid=0, allocator=allocator)
        attacker_space = AddressSpace(pid=1, allocator=allocator)
        layout = hierarchy.l1.layout
        victim_line = victim_space.translate(
            build_set_conflicting_lines(victim_space, layout, 5, 1)[0]
        )
        hierarchy.store(victim_line, owner=0)
        for va in build_set_conflicting_lines(attacker_space, layout, 5, 20):
            hierarchy.load(attacker_space.translate(va), owner=1)
        assert hierarchy.l1.probe(victim_line)
        assert hierarchy.l1.is_dirty(victim_line)

    def test_fill_bypass_when_all_locked(self):
        hierarchy = make_plcache_hierarchy(protected_owners=(0,), rng=random.Random(0))
        allocator = FrameAllocator()
        space = AddressSpace(pid=0, allocator=allocator)
        layout = hierarchy.l1.layout
        lines = build_set_conflicting_lines(space, layout, 3, 9)
        for va in lines:
            hierarchy.load(space.translate(va), owner=0)
        # Nine protected fills into an 8-way set: at least one bypassed.
        assert hierarchy.l1.bypassed_fills >= 1

    def test_store_to_bypassed_line_settles_deeper(self):
        hierarchy = make_plcache_hierarchy(protected_owners=(0,), rng=random.Random(0))
        allocator = FrameAllocator()
        space = AddressSpace(pid=0, allocator=allocator)
        layout = hierarchy.l1.layout
        lines = [space.translate(va)
                 for va in build_set_conflicting_lines(space, layout, 3, 9)]
        for line in lines[:8]:
            hierarchy.load(line, owner=0)
        hierarchy.store(lines[8], owner=0)  # bypassed fill + forwarded store
        assert not hierarchy.l1.probe(lines[8])


class TestWayPartitioning:
    def test_split_ways_evenly(self):
        assert split_ways_evenly(8, 2) == {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigurationError):
            split_ways_evenly(8, 3)

    def test_allowed_ways_per_owner(self):
        hierarchy = make_partitioned_hierarchy(rng=random.Random(0))
        l1 = hierarchy.l1
        assert l1.allowed_ways(0) == (0, 1, 2, 3)
        assert l1.allowed_ways(1) == (4, 5, 6, 7)
        assert l1.allowed_ways(None) is None

    def test_cross_thread_eviction_impossible(self):
        hierarchy = make_partitioned_hierarchy(rng=random.Random(0))
        allocator = FrameAllocator()
        victim_space = AddressSpace(pid=0, allocator=allocator)
        attacker_space = AddressSpace(pid=1, allocator=allocator)
        layout = hierarchy.l1.layout
        victim_line = victim_space.translate(
            build_set_conflicting_lines(victim_space, layout, 9, 1)[0]
        )
        hierarchy.store(victim_line, owner=0)
        for va in build_set_conflicting_lines(attacker_space, layout, 9, 30):
            hierarchy.load(attacker_space.translate(va), owner=1)
        assert hierarchy.l1.probe(victim_line)

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            WayPartitionedCache(
                "x", 4096, 4, 64, make_policy_factory("lru"),
                rng=random.Random(0), partitions={0: ()},
            )
        with pytest.raises(ConfigurationError):
            WayPartitionedCache(
                "x", 4096, 4, 64, make_policy_factory("lru"),
                rng=random.Random(0), partitions={0: (9,)},
            )


class TestRandomFill:
    def test_demand_miss_not_installed(self):
        hierarchy = make_random_fill_hierarchy(window=4, rng=random.Random(0))
        address = 0x10000
        hierarchy.load(address, owner=1)
        # The demanded line itself is (almost always) not resident; a
        # neighbour is.  With window=4 P(self-fill)=1/9 per miss; assert
        # the decorrelation counter instead of the probabilistic outcome.
        assert hierarchy.l1.decorrelated_fills == 1

    def test_window_zero_behaves_normally(self):
        hierarchy = make_random_fill_hierarchy(window=0, rng=random.Random(0))
        hierarchy.load(0x10000, owner=1)
        assert hierarchy.l1.probe(0x10000)

    def test_store_hit_still_sets_dirty(self):
        # The paper's core argument for why random fill fails.
        hierarchy = make_random_fill_hierarchy(window=4, rng=random.Random(0))
        address = 0x10000
        for _ in range(60):
            hierarchy.load(address, owner=0)
            if hierarchy.l1.probe(address):
                break
        assert hierarchy.l1.probe(address), "random fill never self-filled"
        hierarchy.store(address, owner=0)
        assert hierarchy.l1.is_dirty(address)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomFillCache(
                "x", 4096, 4, 64, make_policy_factory("lru"),
                rng=random.Random(0), window=-1,
            )


class TestRandomizedMapping:
    def test_strides_no_longer_collide(self):
        hierarchy = make_randomized_mapping_hierarchy(rng=random.Random(0))
        l1 = hierarchy.l1
        stride = l1.layout.stride_between_conflicts()
        base = 0x40000
        indices = {l1.set_index(base + i * stride) for i in range(16)}
        assert len(indices) > 4  # classic mapping would give exactly 1

    def test_mapping_is_a_function(self):
        hierarchy = make_randomized_mapping_hierarchy(rng=random.Random(0))
        l1 = hierarchy.l1
        assert l1.set_index(0x1234) == l1.set_index(0x1234)

    def test_different_keys_different_mappings(self):
        a = make_randomized_mapping_hierarchy(key=0x1111, rng=random.Random(0)).l1
        b = make_randomized_mapping_hierarchy(key=0x2222, rng=random.Random(0)).l1
        addresses = [0x1000 * i for i in range(64)]
        assert [a.set_index(x) for x in addresses] != [b.set_index(x) for x in addresses]

    def test_cache_still_functions(self):
        hierarchy = make_randomized_mapping_hierarchy(rng=random.Random(0))
        hierarchy.load(0x5000, owner=0)
        assert hierarchy.l1.probe(0x5000)

    def test_rekey_flushes_and_advances_epoch(self):
        hierarchy = make_randomized_mapping_hierarchy(
            rekey_period_accesses=10, rng=random.Random(0)
        )
        hierarchy.load(0x5000, owner=0)
        for i in range(30):
            hierarchy.load(0x9000 + i * 64, owner=0)
        assert hierarchy.l1.rekey_count >= 1

    @staticmethod
    def _rekeyed_run(seed, accesses, period, write_ratio, bus=None):
        """Random traffic over 1024 lines; returns (latencies, rekey_count)."""
        hierarchy = make_randomized_mapping_hierarchy(
            rekey_period_accesses=period, rng=random.Random(seed)
        )
        if bus is not None:
            hierarchy.attach_telemetry(bus)
        traffic = random.Random(seed + 1)
        latencies = []
        for _ in range(accesses):
            address = 0x100000 + traffic.randrange(1024) * 64
            write = traffic.random() < write_ratio
            latencies.append(hierarchy.access(address, write, owner=0).latency)
        return latencies, hierarchy.l1.rekey_count

    @pytest.mark.parametrize("seed", range(3))
    def test_rekey_counts_one_tick_per_access_with_stores(self, seed):
        # A rekey between a store hit's probe and its mark_dirty used to
        # flush the line under it.
        _, rekeys = self._rekeyed_run(seed, 2000, 50, write_ratio=0.3)
        assert rekeys == 2000 // 50

    def test_rekey_unchanged_by_telemetry(self):
        from repro.telemetry import TelemetryBus

        quiet = self._rekeyed_run(0, 5000, 200, write_ratio=0.0)
        traced = self._rekeyed_run(0, 5000, 200, write_ratio=0.0, bus=TelemetryBus())
        assert quiet == traced
        assert quiet[1] == 5000 // 200

    def test_eviction_set_profiling_defeats_fixed_key(self):
        hierarchy = make_randomized_mapping_hierarchy(rng=random.Random(0))
        space = AddressSpace(pid=1, allocator=FrameAllocator())
        probe = 0x100000
        space.translate(probe)
        candidates = [0x200000 + i * 64 for i in range(640)]
        for candidate in candidates:
            space.translate(candidate)
        eviction_set = find_eviction_set(hierarchy, space, probe, candidates)
        assert eviction_set, "profiling found no eviction set"
        # The reduction is conservative (residual cache state makes
        # marginal groups flaky), but it must cut the pool substantially.
        assert len(eviction_set) <= len(candidates) // 4
        # Verify: the found set actually evicts the probe line.  Two
        # passes make the check state-independent (the first pass forces
        # every set member resident regardless of leftover cache state).
        hierarchy.load(space.translate(probe))
        for _ in range(2):
            for line in eviction_set:
                hierarchy.load(space.translate(line))
        assert not hierarchy.l1.probe(space.translate(probe))


class TestWriteThrough:
    def test_l1_never_dirty(self):
        hierarchy = make_write_through_hierarchy(rng=random.Random(0))
        hierarchy.load(0x3000, owner=0)
        hierarchy.store(0x3000, owner=0)
        assert not hierarchy.l1.is_dirty(0x3000)

    def test_store_miss_does_not_allocate(self):
        hierarchy = make_write_through_hierarchy(rng=random.Random(0))
        hierarchy.store(0x3000, owner=0)
        assert not hierarchy.l1.probe(0x3000)
