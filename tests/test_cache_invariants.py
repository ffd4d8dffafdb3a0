"""Property-based invariants of the cache hierarchy.

These test whole-system conservation laws under arbitrary operation
sequences — the class of bug unit tests miss (e.g. dirty data silently
dropped during a multi-level eviction cascade would corrupt the channel's
signal in ways that still "look plausible").
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.configs import make_tiny_hierarchy
from repro.mem.address_space import AddressSpace, FrameAllocator

# The tiny hierarchy (4-set/2-way L1, 8-set/4-way L2) is exhausted by a
# handful of lines, maximising eviction traffic per operation.
LINES = [i * 64 for i in range(24)]

operations = st.lists(
    st.tuples(
        st.sampled_from(["load", "store"]),
        st.integers(min_value=0, max_value=len(LINES) - 1),
    ),
    max_size=80,
)


def run_ops(ops, seed=0):
    hierarchy = make_tiny_hierarchy(rng=random.Random(seed))
    space = AddressSpace(pid=0, allocator=FrameAllocator())
    written = set()
    for op, index in ops:
        address = space.translate(LINES[index])
        if op == "load":
            hierarchy.load(address, owner=0)
        else:
            hierarchy.store(address, owner=0)
            written.add(address)
    return hierarchy, space, written


class TestStructuralInvariants:
    @given(ops=operations, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_lines_within_a_level(self, ops, seed):
        hierarchy, _, _ = run_ops(ops, seed)
        for level in hierarchy.levels:
            for set_index, cache_set in enumerate(level.sets):
                tags = [line.tag for line in cache_set.lines if line.valid]
                assert len(tags) == len(set(tags)), (
                    f"{level.name} set {set_index} holds a tag twice"
                )

    @given(ops=operations, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_lines_reside_in_their_indexed_set(self, ops, seed):
        hierarchy, _, _ = run_ops(ops, seed)
        for level in hierarchy.levels:
            for set_index, cache_set in enumerate(level.sets):
                for line in cache_set.lines:
                    if not line.valid:
                        continue
                    address = level._address_of(line.tag, set_index)
                    assert level.set_index(address) == set_index

    @given(ops=operations, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_accessed_line_is_l1_resident_afterwards(self, ops, seed):
        hierarchy, space, _ = run_ops(ops, seed)
        # One more load: afterwards the line must be in L1 (write-allocate,
        # no bypass in the base hierarchy).
        address = space.translate(LINES[0])
        hierarchy.load(address, owner=0)
        assert hierarchy.l1.probe(address)


class TestDirtyDataConservation:
    @given(ops=operations, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_written_data_is_cached_dirty_or_reached_memory(self, ops, seed):
        """No silent loss of dirty data.

        Every line ever stored to must either still be dirty somewhere in
        the hierarchy, or memory must have absorbed at least one write.
        (Individual-line tracking through memory would need a functional
        model; the aggregate check still catches dropped write-backs.)
        """
        hierarchy, _, written = run_ops(ops, seed)
        for address in written:
            dirty_somewhere = any(
                level.is_dirty(address) for level in hierarchy.levels
            )
            if not dirty_somewhere:
                assert hierarchy.stats.memory_writes > 0, (
                    f"dirty line {address:#x} vanished without a memory write"
                )


class TestLatencyInvariants:
    @given(ops=operations, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_latency_ordering_by_hit_level(self, ops, seed):
        """Deeper hits never report lower latency than shallower ones."""
        hierarchy, space, _ = run_ops(ops, seed)
        model = hierarchy.latency
        address = space.translate(LINES[5])
        trace = hierarchy.load(address, owner=0)
        floor = {1: model.l1_hit, 2: model.l2_hit, 99: model.dram}
        assert trace.latency >= floor[trace.hit_level]

    @given(seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_dirty_penalty_always_observable(self, seed):
        """The channel's physical signal survives arbitrary prior state."""
        hierarchy, space, _ = run_ops([], seed)
        stride = hierarchy.l1.layout.stride_between_conflicts()
        lines = [space.translate(0x40 + i * stride) for i in range(3)]
        # Fill the 2-way set with dirty lines, then load a third line that
        # was previously evicted to L2.
        hierarchy.load(lines[2], owner=0)
        hierarchy.store(lines[0], owner=0)
        hierarchy.store(lines[1], owner=0)  # evicts lines[2] to L2
        trace = hierarchy.load(lines[2], owner=0)
        assert trace.hit_level == 2
        assert trace.l1_victim_dirty
        assert trace.latency >= hierarchy.latency.l2_hit + hierarchy.latency.l1_writeback_penalty
