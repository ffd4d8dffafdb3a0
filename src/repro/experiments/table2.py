"""Table 2 — probability that a resident line is evicted by N fresh lines.

The paper accesses a (dirty) line 0 and then a replacement set of N
distinct lines, repeating 10 000 times per configuration, for three
policies: true LRU (gem5), Tree-PLRU (gem5) and the real Xeon E5-2650.

Paper's numbers:

====  =====  ==========  =========
N     LRU    Tree-PLRU   E5-2650
====  =====  ==========  =========
8     100%   94.3%       68.8%
9     100%   100%        81.7%
10    100%   100%        100%
====  =====  ==========  =========

The E5-2650 column is reproduced by the :class:`DirtyProtectingLRU`
behavioural surrogate (see DESIGN.md); the LRU and Tree-PLRU columns are
pure policy properties and match structurally.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.common.rng import derive_rng, ensure_rng
from repro.cache.cache_set import CacheSet
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile
from repro.replacement.registry import make_policy_factory

EXPERIMENT_ID = "table2"

#: Policies shown in the paper's three columns.
POLICIES = ("lru", "tree-plru", "e5-2650")
REPLACEMENT_SET_SIZES = (8, 9, 10)


def eviction_probability(
    policy_name: str,
    replacement_set_size: int,
    trials: int,
    rng: random.Random,
    ways: int = 8,
) -> float:
    """P(line 0 evicted) after accessing ``replacement_set_size`` lines.

    Each trial starts from a full set with randomized policy metadata
    (modelling the unknown state left by prior traffic), touches line 0
    (tag 0), then fills N fresh lines and checks whether tag 0 survived.
    """
    factory = make_policy_factory(policy_name)
    evicted = 0
    for trial in range(trials):
        policy = factory(ways, derive_rng(rng, f"{policy_name}/{trial}"))
        cache_set = CacheSet(ways, policy)
        address_of = lambda tag, set_index: tag  # noqa: E731 - trivial reconstructor
        # Pre-fill with unrelated resident lines (tags 1000+).
        for prior in range(ways):
            cache_set.fill(1000 + prior, dirty=False, owner=None,
                           set_index=0, address_of=address_of)
        cache_set.randomize_policy_state()
        # Access line 0 (a store in the paper; only recency matters here).
        cache_set.fill(0, dirty=True, owner=None, set_index=0, address_of=address_of)
        # Access the replacement set: N fresh tags.
        for fresh in range(1, replacement_set_size + 1):
            if cache_set.find(fresh) is None:
                cache_set.fill(fresh, dirty=False, owner=None,
                               set_index=0, address_of=address_of)
        if cache_set.find(0) is None:
            evicted += 1
    return evicted / trials


def run(
    *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Reproduce Table 2."""
    profile = resolve_profile(profile)
    trials = profile.count(quick=400, full=10000)
    rng = ensure_rng(seed)
    probabilities: Dict[str, Dict[int, float]] = {}
    for policy in POLICIES:
        probabilities[policy] = {
            size: eviction_probability(policy, size, trials, derive_rng(rng, policy))
            for size in REPLACEMENT_SET_SIZES
        }
    rows: List[List[object]] = []
    for size in REPLACEMENT_SET_SIZES:
        rows.append(
            [size]
            + [f"{probabilities[policy][size]:.1%}" for policy in POLICIES]
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Probability of line 0 being evicted",
        paper_reference="Table 2",
        columns=["N", "LRU", "Tree-PLRU", "E5-2650 (surrogate)"],
        rows=rows,
        params={"trials": trials, "seed": seed},
        notes=(
            "LRU matches the paper (100% from N=8). Our Tree-PLRU's "
            "miss-victim walk provably covers all 8 ways in 8 fills, so it "
            "reads 100% at N=8 where gem5's implementation measured 94.3% "
            "— same crossover (certain from N=9), different tail. The "
            "E5-2650 column comes from the DirtyProtectingLRU surrogate "
            "calibrated to the paper's 68.8%/81.7%/100% (see DESIGN.md)."
        ),
    )
