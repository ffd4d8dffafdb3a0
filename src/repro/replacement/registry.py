"""Name-based registry of replacement-policy factories.

Experiments and cache presets refer to policies by short stable names
(``"lru"``, ``"tree-plru"``, ...) so that configurations stay serialisable
and CLI-selectable.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.replacement.base import PolicyFactory
from repro.replacement.dirty_protect import DirtyProtectingLRU
from repro.replacement.random_policy import LFSRPseudoRandom, UniformRandom
from repro.replacement.srrip import SRRIP
from repro.replacement.tree_plru import TreePLRU
from repro.replacement.true_lru import TrueLRU

_REGISTRY: Dict[str, type] = {
    "lru": TrueLRU,
    "tree-plru": TreePLRU,
    "e5-2650": DirtyProtectingLRU,  # behavioural surrogate, see DESIGN.md
    "srrip": SRRIP,
    "random": UniformRandom,
    "lfsr-random": LFSRPseudoRandom,
}


def available_policies() -> List[str]:
    """Sorted list of registered policy names."""
    return sorted(_REGISTRY)


def make_policy_factory(name: str, **kwargs: object) -> PolicyFactory:
    """Return a ``factory(ways, rng)`` for the policy called ``name``.

    Extra keyword arguments are forwarded to the policy constructor, e.g.
    ``make_policy_factory("srrip", rrpv_bits=3)``.  The factory is
    ``functools.partial(policy_cls, **kwargs)``.
    """
    try:
        policy_cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"available: {', '.join(available_policies())}"
        )
    return functools.partial(policy_cls, **kwargs)
