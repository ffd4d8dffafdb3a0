"""Typed run profiles: how much work an experiment run should do.

Historically every experiment took an untyped ``quick: bool`` knob.  A
:class:`RunProfile` replaces it with a value object that carries the
repetition-count policy explicitly, can be extended (scaled-down smoke
profiles, scaled-up precision profiles) and serialises into run manifests.

Experiments resolve their repetition counts through
:meth:`RunProfile.count`::

    trials = profile.count(quick=400, full=10000)

so the profile — not the experiment — decides which budget applies, and a
custom ``scale`` shrinks or grows every budget uniformly.

The pre-profile ``quick: bool`` alias (deprecated since the profile API
landed) has been removed; passing it raises a :class:`TypeError` naming
:class:`RunProfile` — see :func:`resolve_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.records import REQUIRED_KEY, Record

#: Cap on :attr:`RunProfile.scale` from a request: above every profile
#: in the repo (1.0 in ``src/``, 60 in the fleet smoke), and it stops a
#: scale such as 1e12 from holding a worker until its job's timeout.
_MAX_SCALE = 100.0


@dataclass(frozen=True)
class RunProfile(Record):
    """A named repetition-count policy for experiment runs.

    ``reduced`` selects the experiments' CI-speed budgets (what
    ``quick=True`` used to mean); ``scale`` multiplies whichever budget is
    selected, so ``RunProfile("smoke", reduced=True, scale=0.5)`` runs at
    half the quick counts.

    ``from_dict`` requires ``reduced``: a profile that names a budget
    without saying which must not run the full one.  Manifests written
    before a knob existed load with its default (``engine=None``,
    ``telemetry=False``).
    """

    name: str
    #: True → experiments use their reduced (CI-speed) repetition counts.
    reduced: bool = field(default=False, metadata=REQUIRED_KEY)
    #: Multiplier applied to every resolved repetition count (min 1).
    scale: float = 1.0
    #: Simulation engine ("reference" or "fast", see
    #: :mod:`repro.engine.selection`); ``None`` keeps the process default.
    #: Results are bit-identical across engines — this knob trades nothing
    #: but wall-clock time.
    engine: Optional[str] = None
    #: Stream cache events through a telemetry session around the run
    #: (see :mod:`repro.telemetry.session`).  Simulated observables are
    #: bit-identical with or without it; it adds wall-clock cost and a
    #: ``telemetry`` summary in the result params / run manifest.
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("profile name must be non-empty")
        if not 0 < self.scale <= _MAX_SCALE:
            raise ConfigurationError(
                f"profile scale must be in (0, {_MAX_SCALE:g}], got {self.scale}"
            )
        if self.engine is not None:
            from repro.engine.selection import resolve_engine

            resolve_engine(self.engine)

    @property
    def is_reduced(self) -> bool:
        """True when the profile selects reduced repetition counts."""
        return self.reduced

    def count(self, quick: int, full: int) -> int:
        """Resolve a repetition count: the quick or full budget, scaled."""
        base = quick if self.reduced else full
        return max(1, round(base * self.scale))

    def with_engine(self, engine: Optional[str]) -> "RunProfile":
        """Copy of this profile pinned to ``engine`` (None = unchanged)."""
        if engine is None:
            return self
        import dataclasses

        return dataclasses.replace(self, engine=engine)

    def with_telemetry(self, telemetry: bool = True) -> "RunProfile":
        """Copy of this profile with telemetry streaming on (or off)."""
        if telemetry == self.telemetry:
            return self
        import dataclasses

        return dataclasses.replace(self, telemetry=telemetry)


#: The two canonical profiles (the old ``quick=False`` / ``quick=True``).
FULL = RunProfile("full", reduced=False)
QUICK = RunProfile("quick", reduced=True)

_NAMED_PROFILES: Dict[str, RunProfile] = {"full": FULL, "quick": QUICK}

#: What experiment ``run()`` functions accept for their ``profile`` argument.
ProfileLike = Union[RunProfile, str, None]

#: The tombstone message for the removed ``quick: bool`` alias.
_QUICK_REMOVED = (
    "the quick= flag has been removed; pass profile='quick', "
    "profile='full', or a repro.experiments.profiles.RunProfile instance"
)


def available_profiles() -> list:
    """Names accepted by :func:`resolve_profile` as strings."""
    return sorted(_NAMED_PROFILES)


def resolve_profile(
    profile: ProfileLike = None, quick: Optional[bool] = None
) -> RunProfile:
    """Normalise the ``profile`` argument to a :class:`RunProfile`.

    - ``RunProfile`` instances pass through.
    - Strings look up the named profiles (``"quick"`` / ``"full"``).
    - ``None`` means :data:`FULL`.

    The pre-profile ``quick: bool`` alias — ``quick=True/False``, or a
    bare bool where the profile now goes — was deprecated when profiles
    landed and has been removed; both forms raise a :class:`TypeError`
    pointing at :class:`RunProfile`.  The ``quick`` parameter survives in
    the signature only so old keyword callers get that message instead
    of a generic "unexpected keyword argument".
    """
    if isinstance(profile, bool) or quick is not None:
        raise TypeError(_QUICK_REMOVED)
    if profile is None:
        return FULL
    if isinstance(profile, RunProfile):
        return profile
    if isinstance(profile, str):
        try:
            return _NAMED_PROFILES[profile]
        except KeyError:
            raise ConfigurationError(
                f"unknown profile {profile!r}; available: "
                f"{', '.join(available_profiles())}"
            )
    raise ConfigurationError(
        f"profile must be a RunProfile, profile name or None, "
        f"got {type(profile).__name__}"
    )
