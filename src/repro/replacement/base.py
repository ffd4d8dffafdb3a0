"""Replacement-policy interface.

A policy instance tracks replacement metadata for one cache set of ``ways``
ways.  The hosting :class:`~repro.cache.CacheSet` is responsible for filling
invalid ways first; :meth:`victim` is only consulted when the set is full, so
policies may assume every way is valid when choosing.
"""

from __future__ import annotations

import abc
import random
from typing import Callable

from repro.common.errors import ConfigurationError

#: Signature of per-set policy constructors: ``factory(ways, rng) -> policy``.
#: A :class:`~repro.cache.cache.Cache` passes a
#: :class:`~repro.common.rng.LazyRandom`, which builds the set's
#: ``random.Random`` on first use; standalone sets pass a ``random.Random``.
#: ``make_policy_factory`` returns a ``functools.partial``; the fast engine
#: reads its ``func`` and ``keywords`` to build the integer state instead.
PolicyFactory = Callable[[int, random.Random], "ReplacementPolicy"]


class ReplacementPolicy(abc.ABC):
    """Replacement metadata for a single cache set.

    Subclasses implement the three state-transition hooks plus victim
    selection.  ``rng`` is the only source of randomness a policy may use;
    deterministic policies simply ignore it.  It is a ``random.Random`` or,
    for a set a :class:`~repro.cache.cache.Cache` built, a
    :class:`~repro.common.rng.LazyRandom` with the same draws, whose
    generator is built only when the policy first draws.  So draw from it
    (``random``, ``randrange``, ``shuffle``, ...) and never hand it to
    ``ensure_rng`` or ``random.Random(...)``.
    """

    #: Set True by policies whose :meth:`notify_dirty_ways` actually
    #: consumes the hint.  The hosting cache set skips building the
    #: per-miss dirty-ways tuple for everyone else (the common path).
    wants_dirty_hint: bool = False

    def __init__(self, ways: int, rng: random.Random) -> None:
        self.check_ways(ways)
        self.ways = ways
        self.rng = rng

    @classmethod
    def check_ways(cls, ways: int) -> None:
        """Raise :class:`ConfigurationError` unless ``cls`` can manage ``ways``."""
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")

    @abc.abstractmethod
    def on_fill(self, way: int) -> None:
        """A new line was installed into ``way`` (after a miss)."""

    @abc.abstractmethod
    def on_hit(self, way: int) -> None:
        """The line in ``way`` was accessed and hit."""

    @abc.abstractmethod
    def victim(self) -> int:
        """Choose the way to evict; the set is guaranteed full."""

    def on_invalidate(self, way: int) -> None:
        """The line in ``way`` was invalidated (flush). Optional hook."""

    def notify_dirty_ways(self, dirty_mask: "tuple[bool, ...]") -> None:
        """Hint from the cache set: which ways are currently dirty.

        Called immediately before :meth:`victim`, but only for policies
        that declare ``wants_dirty_hint = True`` — building the mask tuple
        on every miss is measurable overhead, so consumers must opt in.
        The E5-2650 behavioural surrogate
        (:class:`~repro.replacement.dirty_protect.DirtyProtectingPLRU`)
        uses it to model the measured reluctance to evict dirty victims.
        """

    def randomize_state(self) -> None:
        """Scramble internal metadata as if arbitrary prior traffic ran.

        Used by the Table 2 experiment, where the probability of evicting a
        known line depends on the (unknown) pre-existing PLRU state of the
        set.  The default performs a plausible scramble by replaying random
        hits; subclasses with richer state override it.
        """
        for _ in range(self.ways * 4):
            self.on_hit(self.rng.randrange(self.ways))

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise ConfigurationError(f"way {way} out of range [0, {self.ways})")

    @property
    def name(self) -> str:
        """Human-readable policy name (class name by default)."""
        return type(self).__name__
