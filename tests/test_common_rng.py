"""Deterministic RNG plumbing."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import LazyRandom, derive_rng, ensure_rng, maybe_seeded

#: One call on a generator: a method name and its arguments.
CALLS = st.one_of(
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("randrange"), st.tuples(st.integers(1, 2**70))),
    st.tuples(st.just("shuffle"), st.tuples(st.lists(st.integers(), max_size=20))),
    st.tuples(st.just("getrandbits"), st.tuples(st.integers(0, 200))),
    st.tuples(st.just("getstate"), st.just(())),
    st.tuples(
        st.just("setstate"),
        st.tuples(st.integers(0, 2**32).map(lambda s: random.Random(s).getstate())),
    ),
)


class TestEnsureRng:
    def test_passes_through_random_instances(self):
        generator = random.Random(3)
        assert ensure_rng(generator) is generator

    def test_none_is_deterministic_default(self):
        assert ensure_rng(None).random() == ensure_rng(None).random()

    def test_int_seeds(self):
        assert ensure_rng(42).random() == random.Random(42).random()

    def test_distinct_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()


class TestDeriveRng:
    def test_deterministic_per_label(self):
        a = derive_rng(random.Random(9), "sender")
        b = derive_rng(random.Random(9), "sender")
        assert a.random() == b.random()

    def test_labels_give_independent_streams(self):
        parent = random.Random(9)
        a = derive_rng(parent, "sender")
        parent = random.Random(9)
        b = derive_rng(parent, "receiver")
        assert a.random() != b.random()

    def test_derivation_consumes_parent_state(self):
        parent = random.Random(9)
        derive_rng(parent, "x")
        after_one = parent.random()
        parent = random.Random(9)
        derive_rng(parent, "x")
        derive_rng(parent, "y")
        after_two = parent.random()
        assert after_one != after_two


class TestMaybeSeeded:
    def test_seeded_reproducible(self):
        assert maybe_seeded(5).random() == maybe_seeded(5).random()

    def test_unseeded_returns_generator(self):
        assert isinstance(maybe_seeded(None), random.Random)


class TestLazyRandom:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64), calls=st.lists(CALLS, min_size=1, max_size=12))
    def test_returns_what_random_returns(self, seed, calls):
        lazy, real = LazyRandom(seed), random.Random(seed)
        for name, args in calls:
            if name == "shuffle":
                lazy_items, real_items = list(args[0]), list(args[0])
                lazy.shuffle(lazy_items)
                real.shuffle(real_items)
                assert lazy_items == real_items
            else:
                assert getattr(lazy, name)(*args) == getattr(real, name)(*args)
