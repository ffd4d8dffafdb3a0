"""Preset hierarchy configurations."""

import random

import pytest

from repro.cache.configs import (
    XeonE5_2650Config,
    dataclass_replace,
    make_tiny_hierarchy,
    make_xeon_hierarchy,
)
from repro.common.errors import ConfigurationError


class TestXeonConfig:
    def test_matches_paper_table3(self):
        config = XeonE5_2650Config()
        assert config.l1_size == 32 * 1024
        assert config.l1_ways == 8
        assert config.l1_sets == 64
        assert config.line_size == 64

    def test_hierarchy_levels(self):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0))
        assert [level.name for level in hierarchy.levels] == ["L1D", "L2", "LLC"]
        assert hierarchy.l1.num_sets == 64

    def test_overrides(self):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), l1_policy="random")
        policy = hierarchy.l1.sets[0].policy
        assert type(policy).__name__ == "UniformRandom"

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            make_xeon_hierarchy(rng=random.Random(0), l1_speed="warp")

    def test_dataclass_replace(self):
        config = dataclass_replace(XeonE5_2650Config(), l1_ways=4)
        assert config.l1_ways == 4

    def test_deterministic_given_seed(self):
        first = make_xeon_hierarchy(rng=random.Random(5))
        second = make_xeon_hierarchy(rng=random.Random(5))
        first.store(0x1000)
        second.store(0x1000)
        assert first.l1.is_dirty(0x1000) == second.l1.is_dirty(0x1000)


class TestTinyHierarchy:
    def test_geometry(self):
        hierarchy = make_tiny_hierarchy(rng=random.Random(0))
        assert hierarchy.l1.num_sets == 4
        assert hierarchy.l1.associativity == 2

    def test_policy_selectable(self):
        hierarchy = make_tiny_hierarchy(l1_policy="random", rng=random.Random(0))
        assert type(hierarchy.l1.sets[0].policy).__name__ == "UniformRandom"
