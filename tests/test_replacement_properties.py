"""Property-based invariants that every replacement policy must satisfy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replacement import available_policies, make_policy_factory

WAYS = 8

#: A random exercise script: True = fill victim, int = hit that way.
operations = st.lists(
    st.one_of(st.just("fill"), st.integers(min_value=0, max_value=WAYS - 1)),
    max_size=60,
)


def exercise(policy, ops):
    """Apply an operation script, returning every victim chosen."""
    victims = []
    for op in ops:
        if op == "fill":
            way = policy.victim()
            victims.append(way)
            policy.on_fill(way)
        else:
            policy.on_hit(op)
    return victims


@pytest.mark.parametrize("name", available_policies())
class TestUniversalInvariants:
    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_victims_always_in_range(self, name, ops, seed):
        policy = make_policy_factory(name)(WAYS, random.Random(seed))
        for way in exercise(policy, ops):
            assert 0 <= way < WAYS

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_randomize_state_keeps_victims_valid(self, name, seed):
        policy = make_policy_factory(name)(WAYS, random.Random(seed))
        policy.randomize_state()
        for _ in range(WAYS * 2):
            way = policy.victim()
            assert 0 <= way < WAYS
            policy.on_fill(way)

    @given(ops=operations)
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, name, ops):
        first = make_policy_factory(name)(WAYS, random.Random(99))
        second = make_policy_factory(name)(WAYS, random.Random(99))
        assert exercise(first, ops) == exercise(second, ops)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_sustained_fills_eventually_cover_every_way(self, name, seed):
        # Liveness: no way is starved forever under pure miss traffic.
        policy = make_policy_factory(name)(WAYS, random.Random(seed))
        victims = set()
        for _ in range(WAYS * 64):
            way = policy.victim()
            victims.add(way)
            policy.on_fill(way)
            if len(victims) == WAYS:
                break
        assert victims == set(range(WAYS))


@pytest.mark.parametrize("name", ["lru", "tree-plru"])
class TestRecencyRespectingPolicies:
    @given(
        protected=st.integers(min_value=0, max_value=WAYS - 1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_evicts_the_just_touched_way(self, name, protected, seed):
        policy = make_policy_factory(name)(WAYS, random.Random(seed))
        policy.randomize_state()
        policy.on_hit(protected)
        assert policy.victim() != protected
