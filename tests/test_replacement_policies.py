"""Behavioural tests for every replacement policy."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.replacement import (
    SRRIP,
    DirtyProtectingLRU,
    LFSRPseudoRandom,
    TreePLRU,
    TrueLRU,
    UniformRandom,
    available_policies,
    make_policy_factory,
)

ALL_POLICY_NAMES = available_policies()


def make(name, ways=8, seed=0, **kwargs):
    return make_policy_factory(name, **kwargs)(ways, random.Random(seed))


class TestRegistry:
    def test_known_names_present(self):
        for name in ("lru", "tree-plru", "random", "lfsr-random", "e5-2650"):
            assert name in ALL_POLICY_NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_policy_factory("clairvoyant")

    def test_factory_kwargs_forwarded(self):
        policy = make("srrip", rrpv_bits=3)
        assert policy.max_rrpv == 7

    @pytest.mark.parametrize("name", ALL_POLICY_NAMES)
    def test_every_policy_constructs(self, name):
        policy = make(name)
        assert policy.ways == 8


class TestTrueLRU:
    def test_evicts_oldest(self):
        policy = make("lru", ways=4)
        for way in range(4):
            policy.on_fill(way)
        assert policy.victim() == 0

    def test_hit_refreshes(self):
        policy = make("lru", ways=4)
        for way in range(4):
            policy.on_fill(way)
        policy.on_hit(0)
        assert policy.victim() == 1

    def test_invalidate_promotes_to_victim(self):
        policy = make("lru", ways=4)
        for way in range(4):
            policy.on_fill(way)
        policy.on_invalidate(2)
        assert policy.victim() == 2

    def test_recency_order_exposed(self):
        policy = make("lru", ways=3)
        for way in (2, 0, 1):
            policy.on_fill(way)
        assert policy.recency_order() == [2, 0, 1]


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TreePLRU(6, random.Random(0))

    def test_victim_avoids_just_touched(self):
        policy = make("tree-plru", ways=8)
        policy.randomize_state()
        policy.on_hit(3)
        assert policy.victim() != 3

    def test_eight_fills_cover_all_ways(self):
        # The property behind Table 2's 100% at N=8 for our Tree-PLRU:
        # consecutive miss-fills visit every way exactly once.
        for seed in range(20):
            policy = make("tree-plru", ways=8, seed=seed)
            policy.randomize_state()
            victims = []
            for _ in range(8):
                way = policy.victim()
                victims.append(way)
                policy.on_fill(way)
            assert sorted(victims) == list(range(8)), victims

    def test_tree_bits_exposed(self):
        policy = make("tree-plru", ways=8)
        assert len(policy.tree_bits()) == 7


class TestDirtyProtectingLRU:
    def _run_trial(self, replacement_size, seed):
        policy = DirtyProtectingLRU(8, random.Random(seed))
        resident = {}
        for way in range(8):
            policy.on_fill(way)
            resident[way] = ("prior", False)
        # Install the dirty probe line by evicting the policy's victim.
        policy.notify_dirty_ways(tuple(False for _ in range(8)))
        victim = policy.victim()
        resident[victim] = ("line0", True)
        policy.on_fill(victim)
        for _ in range(replacement_size):
            policy.notify_dirty_ways(
                tuple(resident[way][1] for way in range(8))
            )
            way = policy.victim()
            resident[way] = ("fresh", False)
            policy.on_fill(way)
        return all(kind != "line0" for kind, _ in resident.values())

    def test_matches_paper_table2_column(self):
        trials = 3000
        for size, expected in ((8, 0.688), (9, 0.817), (10, 1.0)):
            evicted = sum(self._run_trial(size, seed) for seed in range(trials))
            assert evicted / trials == pytest.approx(expected, abs=0.04)

    def test_budget_guarantees_eviction(self):
        # Protection budget is 2; a replacement set of 10 always evicts.
        assert all(self._run_trial(10, seed) for seed in range(500))

    def test_rejects_bad_probs(self):
        with pytest.raises(ConfigurationError):
            DirtyProtectingLRU(8, random.Random(0), protect_probs=(2.0,))

    def test_rejects_bad_mask_width(self):
        policy = DirtyProtectingLRU(8, random.Random(0))
        with pytest.raises(ConfigurationError):
            policy.notify_dirty_ways((True,))


class TestSRRIP:
    def test_fill_inserts_long_rereference(self):
        policy = SRRIP(4, random.Random(0))
        policy.on_fill(0)
        assert policy.rrpv_values()[0] == policy.max_rrpv - 1

    def test_hit_promotes(self):
        policy = SRRIP(4, random.Random(0))
        policy.on_fill(0)
        policy.on_hit(0)
        assert policy.rrpv_values()[0] == 0

    def test_victim_prefers_distant(self):
        policy = SRRIP(4, random.Random(0))
        for way in range(4):
            policy.on_fill(way)
        policy.on_hit(0)
        assert policy.victim() != 0

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            SRRIP(4, random.Random(0), rrpv_bits=0)


class TestRandomPolicies:
    def test_uniform_covers_all_ways(self):
        policy = UniformRandom(8, random.Random(0))
        victims = {policy.victim() for _ in range(400)}
        assert victims == set(range(8))

    def test_uniform_is_roughly_uniform(self):
        policy = UniformRandom(8, random.Random(1))
        counts = [0] * 8
        for _ in range(8000):
            counts[policy.victim()] += 1
        assert min(counts) > 800  # expected 1000 each

    def test_lfsr_never_repeats_immediately(self):
        policy = LFSRPseudoRandom(8, random.Random(2))
        previous_state = None
        for _ in range(200):
            policy.victim()
            assert policy._state != previous_state
            previous_state = policy._state

    def test_lfsr_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            LFSRPseudoRandom(6, random.Random(0))

    def test_lfsr_covers_all_ways(self):
        policy = LFSRPseudoRandom(8, random.Random(3))
        victims = {policy.victim() for _ in range(300)}
        assert victims == set(range(8))
