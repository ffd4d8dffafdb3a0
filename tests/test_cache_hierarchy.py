"""Hierarchy behaviour: the latency rule that *is* the paper's channel."""

import random

import pytest

from repro.cache import (
    CacheHierarchy,
    LatencyModel,
    MEMORY_LEVEL,
    make_tiny_hierarchy,
    make_xeon_hierarchy,
)
from repro.cache.cache import WritePolicy
from repro.common.errors import ConfigurationError
from repro.mem.address_space import AddressSpace, FrameAllocator
from repro.mem.sets import build_set_conflicting_lines


@pytest.fixture
def quiet_xeon():
    """Xeon hierarchy with jitter disabled for exact latency assertions."""
    from repro.cache.configs import XeonE5_2650Config

    config = XeonE5_2650Config(latency=LatencyModel(jitter=0))
    return make_xeon_hierarchy(config=config, rng=random.Random(0))


def conflict_lines(hierarchy, space, target_set, count):
    return [
        space.translate(va)
        for va in build_set_conflicting_lines(
            space, hierarchy.l1.layout, target_set, count
        )
    ]


class TestLatencyClasses:
    """The Table 4 anchors, asserted exactly (jitter off)."""

    def test_l1_hit_latency(self, quiet_xeon):
        quiet_xeon.load(0x1000)
        assert quiet_xeon.load(0x1000).latency == 4

    def test_memory_latency_on_cold_miss(self, quiet_xeon):
        trace = quiet_xeon.load(0x1000)
        assert trace.hit_level == MEMORY_LEVEL
        assert trace.latency == 200

    def test_clean_replacement_costs_l2_hit(self, quiet_xeon, space):
        lines = conflict_lines(quiet_xeon, space, 5, 10)
        for line in lines:
            quiet_xeon.load(line)
        # lines[0] and [1] were evicted to L2 by the last loads; reloading
        # one replaces a *clean* line: pure L2 hit cost.
        trace = quiet_xeon.load(lines[0])
        assert trace.hit_level == 2
        assert not trace.l1_victim_dirty
        assert trace.latency == 11

    def test_dirty_replacement_adds_writeback_penalty(self, quiet_xeon, space):
        lines = conflict_lines(quiet_xeon, space, 5, 9)
        for line in lines[:8]:
            quiet_xeon.store(line)  # set full of dirty lines
        quiet_xeon.load(lines[8])  # evict one dirty -> L2
        trace = quiet_xeon.load(lines[0]) if not quiet_xeon.l1.probe(lines[0]) else None
        # lines[0] may or may not have been the victim; find an evicted one.
        victim = next(l for l in lines[:8] if not quiet_xeon.l1.probe(l))
        trace = quiet_xeon.load(victim)
        assert trace.hit_level == 2
        assert trace.l1_victim_dirty
        assert trace.latency == 22

    def test_the_channels_signal_is_exactly_the_penalty(self, quiet_xeon):
        model = quiet_xeon.latency
        assert model.hit_latency(2) + model.writeback_penalty(1) == 22


class TestWritebackPath:
    def test_dirty_eviction_lands_in_l2_dirty(self, tiny, space):
        lines = conflict_lines(tiny, space, 1, 3)
        tiny.store(lines[0])
        tiny.load(lines[1])
        tiny.load(lines[2])  # evicts lines[0] (2-way LRU)
        assert not tiny.l1.probe(lines[0])
        assert tiny.levels[1].probe(lines[0])
        assert tiny.levels[1].is_dirty(lines[0])

    def test_clean_eviction_does_not_mark_l2_dirty(self, tiny, space):
        lines = conflict_lines(tiny, space, 1, 3)
        for line in lines:
            tiny.load(line)
        assert not tiny.levels[1].is_dirty(lines[0])

    def test_writeback_counted_in_stats(self, tiny, space):
        lines = conflict_lines(tiny, space, 1, 3)
        tiny.store(lines[0], owner=0)
        tiny.load(lines[1], owner=0)
        tiny.load(lines[2], owner=0)
        assert tiny.stats.level(1).writebacks == 1

    def test_memory_write_when_dirty_leaves_last_level(self):
        # Single-level hierarchy: dirty eviction must hit memory.
        from repro.cache.cache import Cache
        from repro.replacement.registry import make_policy_factory

        l1 = Cache("L1", 128, 1, 64, make_policy_factory("lru"), rng=random.Random(0))
        hierarchy = CacheHierarchy(levels=[l1], rng=random.Random(0))
        hierarchy.store(0x0)
        hierarchy.load(0x80)  # same set, evicts dirty 0x0
        assert hierarchy.stats.memory_writes == 1


class TestStoreSemantics:
    def test_store_hit_sets_dirty(self, quiet_xeon):
        quiet_xeon.load(0x1000)
        quiet_xeon.store(0x1000)
        assert quiet_xeon.l1.is_dirty(0x1000)

    def test_store_miss_write_allocate_installs_dirty(self, quiet_xeon):
        quiet_xeon.store(0x2000)
        assert quiet_xeon.l1.probe(0x2000)
        assert quiet_xeon.l1.is_dirty(0x2000)

    def test_write_through_l1_never_dirty(self):
        hierarchy = make_tiny_hierarchy(
            l1_write_policy=WritePolicy.WRITE_THROUGH, rng=random.Random(0)
        )
        hierarchy.load(0x1000)
        hierarchy.store(0x1000)
        assert not hierarchy.l1.is_dirty(0x1000)
        # The store settled in the (write-back) L2 instead.
        assert hierarchy.levels[1].is_dirty(0x1000)


class TestTraceContents:
    def test_trace_records_evictions(self, tiny, space):
        lines = conflict_lines(tiny, space, 2, 3)
        tiny.load(lines[0])
        tiny.load(lines[1])
        trace = tiny.load(lines[2])
        levels = [level for level, _ in trace.evictions]
        assert 1 in levels

    def test_probe_level(self, quiet_xeon, space):
        lines = conflict_lines(quiet_xeon, space, 7, 9)
        for line in lines:
            quiet_xeon.load(line)
        evicted = next(l for l in lines if not quiet_xeon.l1.probe(l))
        assert quiet_xeon.probe_level(evicted) == 2
        assert quiet_xeon.probe_level(lines[-1]) == 1


class TestConstruction:
    def test_rejects_empty_levels(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(levels=[])

    def test_rejects_shrinking_levels(self):
        from repro.cache.cache import Cache
        from repro.replacement.registry import make_policy_factory

        big = Cache("big", 4096, 4, 64, make_policy_factory("lru"), rng=random.Random(0))
        small = Cache("small", 1024, 4, 64, make_policy_factory("lru"), rng=random.Random(0))
        with pytest.raises(ConfigurationError):
            CacheHierarchy(levels=[big, small])
