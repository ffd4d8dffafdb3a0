"""Unit tests of the fast engine's pieces.

Parity with the reference engine is covered by ``test_engine_parity.py``;
these tests pin down the fast structures in isolation: FastSet semantics,
the engine selection switch, the fast policy-state registry, and the
workload generators.
"""

import random

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.engine import (
    FastCache,
    FastSet,
    available_engines,
    cache_class,
    current_engine,
    engine_context,
    fig6_workload,
    random_workload,
    resolve_engine,
    set_engine,
)
from repro.cache.cache import Cache
from repro.replacement import TrueLRU


def make_set(ways=4, seed=0):
    return FastSet(ways, TrueLRU(ways, random.Random(seed)))


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

    def test_policy_attribute_preserved_for_introspection(self):
        policy = TrueLRU(4, random.Random(0))
        fast_set = FastSet(4, policy)
        assert fast_set.policy is policy

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            FastSet(4, TrueLRU(8, random.Random(0)))
        with pytest.raises(ConfigurationError):
            FastSet(0, TrueLRU(1, random.Random(0)))


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


class TestFastStateRegistry:
    def test_every_registered_policy_has_a_fast_path(self):
        from repro.replacement.fast_state import has_fast_state
        from repro.replacement.registry import _REGISTRY

        for name, policy_cls in _REGISTRY.items():
            assert has_fast_state(policy_cls), (
                f"policy {name!r} ({policy_cls.__name__}) would silently "
                "fall back to the adapter"
            )

    def test_unregistered_subclass_falls_back_to_adapter(self):
        from repro.replacement.fast_state import AdapterState, fast_state_for

        class CustomLRU(TrueLRU):
            pass

        state = fast_state_for(CustomLRU(4, random.Random(0)))
        assert isinstance(state, AdapterState)

    def test_adapter_forwards_dirty_hint_opt_in(self):
        from repro.replacement.fast_state import AdapterState

        class HintedLRU(TrueLRU):
            wants_dirty_hint = True

        state = AdapterState(HintedLRU(4, random.Random(0)))
        assert state.wants_dirty_hint


class TestWorkloads:
    def test_fig6_workload_deterministic(self):
        assert fig6_workload(num_symbols=16, seed=3) == fig6_workload(
            num_symbols=16, seed=3
        )
        assert fig6_workload(num_symbols=16, seed=3) != fig6_workload(
            num_symbols=16, seed=4
        )

    def test_fig6_workload_validation(self):
        with pytest.raises(ConfigurationError):
            fig6_workload(num_symbols=0)
        with pytest.raises(ConfigurationError):
            fig6_workload(d=9, sender_lines=8)

    def test_fig6_workload_targets_one_set(self):
        from repro.mem.address import AddressLayout

        layout = AddressLayout(line_size=64, num_sets=64)
        trace = fig6_workload(num_symbols=8, target_set=21, layout=layout)
        assert {layout.set_index(address) for address, _ in trace} == {21}

    def test_random_workload_bounds(self):
        trace = list(random_workload(num_accesses=500, working_set_lines=32))
        assert len(trace) == 500
        assert all(address < 32 * 64 for address, _ in trace)
        with pytest.raises(ConfigurationError):
            list(random_workload(num_accesses=0))
        with pytest.raises(ConfigurationError):
            list(random_workload(write_ratio=1.5))


class TestFastCacheStructure:
    def test_hierarchy_builds_fast_sets(self):
        from repro.cache.configs import make_xeon_hierarchy

        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="fast")
        for level in hierarchy.levels:
            assert type(level) is FastCache
            assert all(type(s) is FastSet for s in level.sets)
        # Policy type introspection still works (test_cache_configs idiom).
        assert type(hierarchy.l1.sets[0].policy).__name__ == "TreePLRU"

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
