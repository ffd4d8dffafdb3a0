"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.cache.configs import make_tiny_hierarchy, make_xeon_hierarchy
from repro.mem.address_space import AddressSpace, FrameAllocator


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests needing variation derive from it."""
    return random.Random(1234)


@pytest.fixture
def xeon():
    """The paper's modelled hierarchy (32KB/8-way L1, L2, LLC)."""
    return make_xeon_hierarchy(rng=random.Random(7))


@pytest.fixture
def tiny():
    """A 2-way, 4-set hierarchy that is easy to exhaust."""
    return make_tiny_hierarchy(rng=random.Random(7))


@pytest.fixture(scope="session")
def quick_result():
    """``get(experiment_id, engine="reference")``: a quick seed-0 result.

    Each ``(experiment_id, engine)`` runs once per session: the goldens
    and the per-experiment shape checks read the same results.
    """
    from repro.experiments import run_experiment
    from repro.experiments.profiles import resolve_profile

    cache = {}

    def get(experiment_id: str, engine: str = "reference"):
        key = (experiment_id, engine)
        if key not in cache:
            profile = resolve_profile("quick").with_engine(engine)
            cache[key] = run_experiment(experiment_id, profile=profile, seed=0)
        return cache[key]

    return get


@pytest.fixture
def allocator() -> FrameAllocator:
    return FrameAllocator()


@pytest.fixture
def space(allocator: FrameAllocator) -> AddressSpace:
    """One process address space over the shared allocator."""
    return AddressSpace(pid=1, allocator=allocator)


@pytest.fixture
def space_pair(allocator: FrameAllocator):
    """Two distinct process address spaces (sender/receiver style)."""
    return (
        AddressSpace(pid=1, allocator=allocator),
        AddressSpace(pid=2, allocator=allocator),
    )
