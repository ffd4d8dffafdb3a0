"""Canonical cache keys: the content addresses of the result store.

A key is the SHA-256 of the :func:`repro.common.canonical_json` form of
the *key material*: everything that determines an experiment's output
bits — ``(experiment_id, RunProfile, seed, optional entry-point
override, optional scenario spec)`` — plus two explicit schema versions:

* ``key_schema_version`` — the layout of the key material itself;
* ``result_schema_version`` — the layout of the stored
  :class:`~repro.experiments.base.ExperimentResult` JSON.

Bumping either retires every previously stored blob (the addresses
change), which is exactly the wanted behaviour: a schema change must
never let an old blob masquerade as a fresh result.

Registered experiments derive all their internal configuration
deterministically from ``(profile, seed)``, so those three fields plus
the schema stamps are a complete content address for them.  The
material's ``wb_config`` slot is always ``None``: it once held a channel
config's fingerprint, and it stays in the layout so that no stored key
moves.

Declarative scenario jobs (``repro.scenario``) fold the complete
canonical spec dict into the material via ``scenario=``: two scenario
submissions dedup onto one computation exactly when their specs
canonicalise identically, regardless of JSON formatting or field order.
The spec carries its own ``schema_version``, so a spec-layout change
retires scenario keys without touching experiment keys.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.canonical import canonical_digest
from repro.experiments.base import SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from repro.experiments.profiles import ProfileLike, resolve_profile

#: Bump on any change to the key-material layout below.
#: v2: added the ``scenario`` field (declarative scenario jobs).
KEY_SCHEMA_VERSION = 2


def key_material(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    entry_point: Optional[str] = None,
    scenario: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The versioned dict a cache key hashes; stable across processes.

    ``scenario`` is the canonical ``ScenarioSpec.to_dict()`` payload of a
    declarative scenario job (``None`` for registered experiments).
    """
    resolved = resolve_profile(profile)
    return {
        "key_schema_version": KEY_SCHEMA_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "profile": resolved.to_dict(),
        "seed": seed,
        "wb_config": None,
        "entry_point": entry_point,
        "scenario": scenario,
    }


def cache_key(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    entry_point: Optional[str] = None,
    scenario: Optional[Dict[str, object]] = None,
) -> str:
    """Content address of one experiment configuration (SHA-256 hex)."""
    return canonical_digest(
        key_material(
            experiment_id,
            profile=profile,
            seed=seed,
            entry_point=entry_point,
            scenario=scenario,
        ),
        require_version=True,
    )
