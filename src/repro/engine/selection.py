"""Engine selection: which cache-core implementation runs the simulation.

Two engines exist:

``reference``
    The original object-per-line :class:`~repro.cache.cache.Cache` /
    :class:`~repro.cache.cache_set.CacheSet` implementation.  Clear,
    defensively validated, and the *semantic oracle*: every behavioural
    question is settled by what this engine does.

``fast``
    :class:`~repro.engine.fast_cache.FastCache` — struct-of-arrays sets,
    O(1) tag lookup, integer-encoded policy state.  Bit-identical to the
    reference engine (enforced by ``tests/test_engine_parity.py``) but
    several times faster on the access hot path.

The active engine is process-global state consulted by the hierarchy
builders in :mod:`repro.cache.configs`.  Experiments select it through
:class:`~repro.experiments.profiles.RunProfile.engine` (CLI: ``--engine``),
which the experiment registry applies around each run via
:func:`engine_context`; the parallel runner ships the profile to workers,
so the selection survives the process boundary.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Type

from repro.common.errors import ConfigurationError

REFERENCE = "reference"
FAST = "fast"

_ENGINES = (REFERENCE, FAST)

#: Engine used when nobody selected one explicitly.
DEFAULT_ENGINE = REFERENCE

_current: str = DEFAULT_ENGINE


def available_engines() -> List[str]:
    """Engine names accepted by :func:`set_engine` and the CLI."""
    return list(_ENGINES)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate ``engine``; ``None`` means the currently active engine."""
    if engine is None:
        return _current
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; available: {', '.join(_ENGINES)}"
        )
    return engine


def current_engine() -> str:
    """The currently active engine name."""
    return _current


def set_engine(engine: str) -> str:
    """Set the process-global engine; returns the previous one."""
    global _current
    previous = _current
    _current = resolve_engine(engine)
    return previous


@contextlib.contextmanager
def engine_context(engine: Optional[str]) -> Iterator[str]:
    """Temporarily activate ``engine`` (no-op for ``None``)."""
    if engine is None:
        yield _current
        return
    previous = set_engine(engine)
    try:
        yield _current
    finally:
        set_engine(previous)


def cache_class(engine: Optional[str] = None) -> Type:
    """The :class:`~repro.cache.cache.Cache` subclass for ``engine``."""
    name = resolve_engine(engine)
    if name == FAST:
        from repro.engine.fast_cache import FastCache

        return FastCache
    from repro.cache.cache import Cache

    return Cache
