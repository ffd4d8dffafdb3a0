"""Single cache level: geometry, lookup/fill semantics, policies."""

import contextlib
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.cache.cache import AllocationPolicy, Cache, WritePolicy
from repro.cache.cache_set import CacheSet
from repro.cache.configs import make_xeon_hierarchy
from repro.cache.line import CacheLine
from repro.engine.fast_cache import FastCache
from repro.engine.fast_set import FastSet
from repro.replacement.registry import make_policy_factory

#: Cache class and set type of each engine.
ENGINES = {"reference": (Cache, CacheSet), "fast": (FastCache, FastSet)}


@contextlib.contextmanager
def counting_generators():
    """Collect every ``random.Random`` this thread constructs in the block."""
    built = []
    init = random.Random.__init__
    thread = threading.get_ident()

    def counting(generator, *args, **kwargs):
        if threading.get_ident() == thread:
            built.append(generator)
        init(generator, *args, **kwargs)

    random.Random.__init__ = counting
    try:
        yield built
    finally:
        random.Random.__init__ = init


def make_cache(size=4096, ways=4, line=64, policy="lru", **kwargs):
    return Cache(
        name="test",
        size_bytes=size,
        associativity=ways,
        line_size=line,
        policy_factory=make_policy_factory(policy),
        rng=random.Random(0),
        **kwargs,
    )


class TestGeometry:
    def test_derived_set_count(self):
        cache = make_cache(size=4096, ways=4, line=64)
        assert cache.num_sets == 16

    def test_paper_l1_geometry(self):
        cache = make_cache(size=32 * 1024, ways=8, line=64)
        assert cache.num_sets == 64

    def test_rejects_inconsistent_size(self):
        with pytest.raises(ConfigurationError):
            make_cache(size=5000, ways=4, line=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            make_cache(size=4096 * 3, ways=4, line=64)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigurationError):
            make_cache(size=0)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000, owner=None)
        cache.fill(0x1000, dirty=False, owner=None)
        assert cache.lookup(0x1000, owner=None)

    def test_probe_does_not_touch_metadata(self):
        cache = make_cache(ways=2)
        cache.fill(0x0, dirty=False, owner=None)
        cache.fill(0x1000, dirty=False, owner=None)  # same set (16 sets * 64B)
        # Probing 0x0 must NOT refresh it: next fill should still evict it.
        cache.probe(0x0)
        evicted = cache.fill(0x2000, dirty=False, owner=None)
        assert evicted is not None
        assert evicted.address == 0x0

    def test_eviction_reconstructs_address(self):
        cache = make_cache(ways=1)
        cache.fill(0x1040, dirty=True, owner=None)
        evicted = cache.fill(0x2040, dirty=False, owner=None)
        assert evicted.address == 0x1040
        assert evicted.dirty

    def test_mark_dirty(self):
        cache = make_cache()
        cache.fill(0x1000, dirty=False, owner=None)
        assert not cache.is_dirty(0x1000)
        cache.mark_dirty(0x1000)
        assert cache.is_dirty(0x1000)

    def test_mark_dirty_requires_residency(self):
        cache = make_cache()
        with pytest.raises(ConfigurationError):
            cache.mark_dirty(0x1000)

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x1000, dirty=True, owner=None)
        snapshot = cache.invalidate(0x1000)
        assert snapshot.dirty
        assert not cache.probe(0x1000)


class TestSetMapping:
    def test_same_stride_contends(self):
        cache = make_cache(ways=2)
        stride = cache.layout.stride_between_conflicts()
        base = 0x8000
        cache.fill(base, dirty=False, owner=None)
        cache.fill(base + stride, dirty=False, owner=None)
        evicted = cache.fill(base + 2 * stride, dirty=False, owner=None)
        assert evicted is not None

    def test_different_sets_do_not_contend(self):
        cache = make_cache(ways=1)
        cache.fill(0x0, dirty=False, owner=None)
        evicted = cache.fill(0x40, dirty=False, owner=None)  # next set
        assert evicted is None

    def test_dirty_lines_in_set(self):
        cache = make_cache(ways=4)
        index = cache.set_index(0x1000)
        cache.fill(0x1000, dirty=True, owner=None)
        assert cache.dirty_lines_in_set(index) == 1
        with pytest.raises(ConfigurationError):
            cache.dirty_lines_in_set(10**6)


class TestDescribe:
    def test_describe_contents(self):
        cache = make_cache()
        info = cache.describe()
        assert info["num_sets"] == 16
        assert info["write_policy"] == WritePolicy.WRITE_BACK.value
        assert info["allocation_policy"] == AllocationPolicy.WRITE_ALLOCATE.value


class TestLazySets:
    """Sets are built on first touch from one seed draw."""

    @settings(max_examples=40, deadline=None)
    @given(
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(min_value=0, max_value=2**64),
        name=st.text(max_size=12),
        log_sets=st.integers(min_value=0, max_value=11),
        data=st.data(),
    )
    def test_seed_contract(self, engine, seed, name, log_sets, data):
        num_sets = 1 << log_sets
        master = random.Random(seed)
        cache = ENGINES[engine][0](
            name, num_sets * 2 * 64, 2, 64, make_policy_factory("lru"), rng=master
        )
        after_words = random.Random(seed)
        for _ in range(num_sets):
            after_words.getrandbits(32)
        assert master.getstate() == after_words.getstate()

        # First touches through the hot path, in any order, by a probe or
        # a load that draws nothing (LRU), then the rest through the view.
        touches = data.draw(
            st.lists(
                st.tuples(st.integers(0, num_sets - 1), st.booleans()),
                unique_by=lambda touch: touch[0],
                max_size=16,
            )
        )
        with counting_generators() as generators:
            for index, load in touches:
                if load:
                    cache.fill(index * 64, dirty=False, owner=0)
                else:
                    cache.probe(index * 64)
        assert generators == []
        sequential = random.Random(seed)
        for index in range(num_sets):
            expected = derive_rng(sequential, f"{name}/set{index}").getstate()
            cache_set = cache.sets[index]
            # A fast set keeps only its integer policy state.
            policy = cache_set.pol if engine == "fast" else cache_set.policy
            assert policy.rng.getstate() == expected

    @pytest.fixture
    def built(self, monkeypatch):
        """Every set object constructed while the test runs, in order."""
        built = []
        for cls in (CacheSet, FastSet):

            def counting(set_obj, *args, init=cls.__init__, **kwargs):
                built.append(set_obj)
                init(set_obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return built

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_construction_and_one_load_build_only_what_they_touch(
        self, engine, built
    ):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine=engine)
        levels = hierarchy.levels
        assert len(built) <= len(levels)
        built.clear()
        address = 0x12340  # maps to a set other than 0 at every level
        hierarchy.load(address, owner=0)
        path = [level.sets[level.set_index(address)] for level in levels]
        assert built == path

    def test_reference_sets_build_a_line_on_its_ways_first_fill(self, monkeypatch):
        built = []
        init = CacheLine.__init__

        def counting(line, *args, **kwargs):
            built.append(line)
            init(line, *args, **kwargs)

        monkeypatch.setattr(CacheLine, "__init__", counting)
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="reference")
        sets = sum(len(list(level.sets)) for level in hierarchy.levels)
        assert sets == 64 + 512 + 2048
        assert len(built) == 0
        hierarchy.load(0x12340, owner=0)
        assert len(built) == len(hierarchy.levels)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_set_builds_its_generator_on_its_first_draw(self, engine):
        hierarchy = make_xeon_hierarchy(
            rng=random.Random(0), engine=engine, l1_policy="random"
        )
        l1 = hierarchy.levels[0]
        # Fill one L1 set's ways, then miss once more: a random-policy
        # set draws only when it has to choose a victim.
        stride = l1.num_sets * 64
        addresses = [0x12340 + stride * i for i in range(l1.associativity + 1)]
        with counting_generators() as generators:
            for address in addresses[:-1]:
                hierarchy.load(address, owner=0)
            assert generators == []
            hierarchy.load(addresses[-1], owner=0)
        assert len(generators) == 1
        assert not hasattr(CacheLine(), "__dict__")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_view_is_a_full_sequence(self, engine):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine=engine)
        set_type = ENGINES[engine][1]
        for level in hierarchy.levels:
            view = level.sets
            assert len(view) == level.num_sets
            items = list(view)
            assert len(items) == level.num_sets
            assert all(type(item) is set_type for item in items)
            assert view[-1] is items[-1]
            assert view[1:3] == items[1:3]
            with pytest.raises(IndexError):
                view[level.num_sets]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_policy_error_raises_at_construction(self, engine):
        with pytest.raises(ConfigurationError):
            ENGINES[engine][0](
                "six-way", 6 * 64 * 4, 6, 64, make_policy_factory("tree-plru"),
                rng=random.Random(0),
            )
