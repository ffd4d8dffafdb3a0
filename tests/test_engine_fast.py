"""Unit tests of the fast engine's pieces.

Parity with the reference engine is covered by ``test_engine_parity.py``;
these tests pin down the fast structures in isolation: FastSet semantics,
the engine selection switch and the fast policy states, each against its
reference policy.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.engine import (
    FastCache,
    FastSet,
    available_engines,
    cache_class,
    current_engine,
    engine_context,
    resolve_engine,
    set_engine,
)
from repro.cache.cache import Cache
from repro.cache.configs import make_xeon_hierarchy
from repro.replacement import ReplacementPolicy, TrueLRU, fast_state
from repro.replacement.fast_state import TrueLRUState, fast_state_factory
from repro.replacement.registry import available_policies, make_policy_factory


def make_set(ways=4, seed=0):
    return FastSet(ways, TrueLRUState(ways, random.Random(seed)))


def addr(tag, set_index):
    return tag  # trivial reconstructor for unit tests


class TestFastSet:
    def test_fills_invalid_ways_first(self):
        fast_set = make_set()
        for tag in range(4):
            assert fast_set.fill(tag, False, None, 0, addr) is None
        assert fast_set.valid_count() == 4

    def test_eviction_reports_victim(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, tag == 0, None, 0, addr)
        evicted = fast_set.fill(99, False, None, 0, addr)
        assert evicted is not None
        assert evicted.address == 0  # LRU: tag 0 was oldest
        assert evicted.dirty

    def test_duplicate_fill_rejected(self):
        fast_set = make_set()
        fast_set.fill(7, False, None, 0, addr)
        with pytest.raises(SimulationError):
            fast_set.fill(7, False, None, 0, addr)

    def test_mark_dirty_and_counters(self):
        fast_set = make_set()
        fast_set.fill(0, False, None, 0, addr)
        fast_set.fill(1, True, None, 0, addr)
        assert (fast_set.valid_count(), fast_set.dirty_count()) == (2, 1)
        fast_set.mark_dirty(fast_set.find(0))
        fast_set.mark_dirty(fast_set.find(0))  # idempotent
        assert fast_set.dirty_count() == 2
        with pytest.raises(SimulationError):
            fast_set.mark_dirty(3)  # invalid way

    def test_invalidate_reports_final_state(self):
        fast_set = make_set()
        fast_set.fill(5, True, 2, 0, addr)
        snapshot = fast_set.invalidate(5)
        assert snapshot.dirty
        assert snapshot.owner == 2
        assert fast_set.find(5) is None
        assert fast_set.invalidate(5) is None

    def test_invalidate_all(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, True, None, 0, addr)
        fast_set.lock(0)
        fast_set.invalidate_all()
        assert fast_set.valid_mask == 0
        assert fast_set.dirty_mask == 0
        assert fast_set.locked_mask == 0
        assert fast_set.index_snapshot() == {}
        assert fast_set.scan_counts() == (0, 0)

    def test_locked_line_never_evicted(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, False, None, 0, addr)
        assert fast_set.lock(0)
        for fresh in range(100, 110):
            fast_set.fill(fresh, False, None, 0, addr)
        assert fast_set.find(0) is not None

    def test_all_locked_raises(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, False, None, 0, addr)
            fast_set.lock(tag)
        with pytest.raises(SimulationError):
            fast_set.choose_victim()

    def test_empty_allowed_ways_rejected(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, False, None, 0, addr)
        with pytest.raises(ConfigurationError):
            fast_set.choose_victim(allowed_ways=())

    def test_fill_respects_allowed_ways(self):
        fast_set = make_set()
        for tag in range(4):
            fast_set.fill(tag, False, None, 0, addr)
        for fresh in range(10, 20):
            fast_set.fill(fresh, False, None, 0, addr, allowed_ways=(0, 1))
        assert fast_set.tags[2] in range(4)
        assert fast_set.tags[3] in range(4)

    def test_way_states_normalises_invalid_ways(self):
        fast_set = make_set()
        fast_set.fill(3, True, 1, 0, addr)
        states = fast_set.way_states()
        way = fast_set.find(3)
        assert states[way] == (True, 3, True, False, 1)
        for other, state in enumerate(states):
            if other != way:
                assert state == (False, None, False, False, None)

    def test_index_never_goes_stale(self):
        rng = random.Random(7)
        fast_set = make_set(seed=2)
        for _ in range(600):
            op = rng.randrange(3)
            tag = rng.randrange(10)
            if op == 0 and fast_set.find(tag) is None:
                fast_set.fill(tag, rng.random() < 0.3, None, 0, addr)
            elif op == 1:
                fast_set.invalidate(tag)
            elif op == 2 and rng.random() < 0.05:
                fast_set.invalidate_all()
            rebuilt = {
                fast_set.tags[way]: way
                for way in range(fast_set.ways)
                if (fast_set.valid_mask >> way) & 1
            }
            assert fast_set.index_snapshot() == rebuilt
            assert fast_set.scan_counts() == (
                fast_set.valid_count(),
                fast_set.dirty_count(),
            )

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            FastSet(0, TrueLRUState(1, random.Random(0)))


class TestSelection:
    def test_available_engines(self):
        assert available_engines() == ["reference", "fast"]

    def test_unknown_engine_rejected(self):
        # Profiles saved by older versions may still name "batch".
        for name in ("warp", "batch"):
            with pytest.raises(ConfigurationError, match="reference, fast$"):
                resolve_engine(name)

    def test_cache_class_mapping(self):
        assert cache_class("reference") is Cache
        assert cache_class("fast") is FastCache

    def test_engine_context_restores_previous(self):
        before = current_engine()
        with engine_context("fast"):
            assert current_engine() == "fast"
            assert cache_class() is FastCache
        assert current_engine() == before

    def test_engine_context_none_is_noop(self):
        before = current_engine()
        with engine_context(None):
            assert current_engine() == before

    def test_set_engine_returns_previous(self):
        previous = set_engine("fast")
        try:
            assert current_engine() == "fast"
        finally:
            set_engine(previous)


#: (policy name, constructor kwargs): every registered policy, plus
#: valid and invalid variants of the policies' keyword arguments.
POLICY_CASES = tuple((name, {}) for name in available_policies()) + (
    ("e5-2650", {"protect_probs": (1.0,)}),
    ("e5-2650", {"protect_probs": (0.5, 0.25, 0.9)}),
    ("e5-2650", {"protect_probs": (2.0,)}),
    ("srrip", {"rrpv_bits": 0}),
    ("srrip", {"rrpv_bits": 1}),
    ("srrip", {"rrpv_bits": 3}),
)

OPS = ("fill", "hit", "invalidate", "victim")


class TestFastStateRegistry:
    def test_every_registered_policy_has_a_fast_path(self):
        for name in available_policies():
            state = fast_state_factory(make_policy_factory(name))(8, random.Random(0))
            assert state.victim() in range(8)

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(POLICY_CASES),
        ways=st.sampled_from((0, 1, 2, 4, 6, 8, 16, 32, 64)),
        seed=st.integers(min_value=0, max_value=2**32),
        ops=st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            max_size=80,
        ),
    )
    @example(case=("lru", {}), ways=0, seed=0, ops=[])
    @example(case=("tree-plru", {}), ways=6, seed=0, ops=[])
    @example(case=("lfsr-random", {}), ways=6, seed=0, ops=[])
    @example(case=("e5-2650", {"protect_probs": (2.0,)}), ways=8, seed=0, ops=[])
    @example(case=("srrip", {"rrpv_bits": 0}), ways=8, seed=0, ops=[])
    def test_state_matches_reference_policy(self, case, ways, seed, ops):
        """Same victims, draws and argument errors as the reference policy."""
        name, kwargs = case
        factory = make_policy_factory(name, **kwargs)
        make_state = fast_state_factory(factory)
        reference_rng = random.Random(seed)
        state_rng = random.Random(seed)
        try:
            policy = factory(ways, reference_rng)
        except ConfigurationError as error:
            with pytest.raises(ConfigurationError) as state_error:
                make_state(ways, state_rng)
            assert str(state_error.value) == str(error)
            return
        state = make_state(ways, state_rng)
        assert state.wants_dirty_hint == policy.wants_dirty_hint
        victims, state_victims = [], []
        for op, way, dirty_bits in ops:
            way %= ways
            if op == "fill":
                policy.on_fill(way)
                state.on_fill(way)
            elif op == "hit":
                policy.on_hit(way)
                state.on_hit(way)
            elif op == "invalidate":
                policy.on_invalidate(way)
                state.on_invalidate(way)
            else:
                if policy.wants_dirty_hint:
                    mask = tuple(bool(dirty_bits >> w & 1) for w in range(ways))
                    policy.notify_dirty_ways(mask)
                    state.notify_dirty_ways(mask)
                victims.append(policy.victim())
                state_victims.append(state.victim())
        assert state_victims == victims
        assert state_rng.getstate() == reference_rng.getstate()

    def test_wide_trees_walk_their_bits_without_a_victim_table(self, monkeypatch):
        table = fast_state._tree_victims

        def bounded(ways):
            if ways > 16:
                raise AssertionError(f"{ways}-way victim table requested")
            return table(ways)

        monkeypatch.setattr(fast_state, "_tree_victims", bounded)
        factory = make_policy_factory("tree-plru")
        for ways in (32, 64):
            policy = factory(ways, random.Random(ways))
            state = fast_state_factory(factory)(ways, random.Random(ways))
            for way in (ways - 1, 0, ways // 2 + 1, 3):
                policy.on_fill(way)
                state.on_fill(way)
                assert state.victim() == policy.victim()

    def test_unregistered_policy_is_rejected_at_construction(self):
        class CustomLRU(TrueLRU):
            pass

        for factory in (
            functools.partial(CustomLRU),
            lambda ways, rng: TrueLRU(ways, rng),
        ):
            Cache("x", 4096, 4, 64, factory, rng=random.Random(0))
            with pytest.raises(ConfigurationError, match="no fast replacement state"):
                FastCache("x", 4096, 4, 64, factory, rng=random.Random(0))

    @pytest.mark.parametrize("engine, per_set", [("reference", 1), ("fast", 0)])
    def test_reference_policies_built_per_set(self, engine, per_set, monkeypatch):
        built = []
        init = ReplacementPolicy.__init__

        def counting(policy, *args, **kwargs):
            built.append(policy)
            init(policy, *args, **kwargs)

        monkeypatch.setattr(ReplacementPolicy, "__init__", counting)
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine=engine)
        sets = sum(len(list(level.sets)) for level in hierarchy.levels)
        assert sets == 64 + 512 + 2048
        assert len(built) == per_set * sets


class TestFastCacheStructure:
    def test_hierarchy_builds_fast_sets(self):
        from repro.cache.configs import make_xeon_hierarchy

        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="fast")
        for level in hierarchy.levels:
            assert type(level) is FastCache
            assert all(type(s) is FastSet for s in level.sets)
        # Policy type introspection reads the set's integer state.
        assert type(hierarchy.l1.sets[0].pol).__name__ == "TreePLRUState"

    def test_reference_remains_default(self):
        from repro.cache.configs import make_xeon_hierarchy

        hierarchy = make_xeon_hierarchy(rng=random.Random(0))
        assert type(hierarchy.l1) is Cache

    def test_profile_engine_validation(self):
        from repro.experiments.profiles import RunProfile

        with pytest.raises(ConfigurationError):
            RunProfile("bad", engine="warp")
        profile = RunProfile("ok", engine="fast")
        assert RunProfile.from_dict(profile.to_dict()) == profile
        # Pre-engine manifests (no engine key) load as engine=None.
        legacy = {"name": "quick", "reduced": True}
        assert RunProfile.from_dict(legacy).engine is None
