"""Preset hierarchy configurations.

:func:`make_xeon_hierarchy` models the paper's evaluation platform (Intel
Xeon E5-2650, Table 3): a 32 KB / 8-way / 64-set VIPT L1D, a 256 KB / 8-way
unified L2 and a last-level cache.  The real part has a 20 MB shared LLC;
we model a 2 MB slice, which preserves every behaviour the paper measures
(the channel never leaves L1/L2) while keeping simulations light.

:func:`make_tiny_hierarchy` is a deliberately small configuration for unit
tests that want to force evictions with a handful of addresses.

Both factories route through :class:`HierarchyParams`, the single value
object describing hierarchy geometry, and so do the defended hierarchies
of :mod:`repro.defenses`, which differ from the Xeon only in their L1D.
``repro.scenario`` serialises the same object inside
:class:`~repro.scenario.spec.ScenarioSpec`, so there is exactly one
source of truth for geometry defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.records import OMIT_AT_DEFAULT, Record
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.cache import AllocationPolicy, Cache, WritePolicy, cache_layout
from repro.cache.hierarchy import CacheHierarchy, check_level_order
from repro.cache.latency import LatencyModel
from repro.replacement.registry import make_policy_factory


@dataclass(frozen=True)
class XeonE5_2650Config:
    """Knobs of the modelled Xeon E5-2650 memory hierarchy.

    The defaults reproduce the paper's platform; experiments vary
    ``l1_policy`` (Table 2, Section 6.1), ``l1_write_policy`` (Section 8)
    and the latency model's jitter.
    """

    l1_size: int = 32 * 1024
    l1_ways: int = 8
    line_size: int = 64
    l2_size: int = 256 * 1024
    l2_ways: int = 8
    llc_size: int = 2 * 1024 * 1024
    llc_ways: int = 16
    l1_policy: str = "tree-plru"
    l2_policy: str = "tree-plru"
    llc_policy: str = "srrip"
    l1_write_policy: WritePolicy = WritePolicy.WRITE_BACK
    l1_allocation_policy: AllocationPolicy = AllocationPolicy.WRITE_ALLOCATE
    latency: LatencyModel = field(default_factory=LatencyModel)

    @property
    def l1_sets(self) -> int:
        """Number of L1 sets (64 for the paper's platform)."""
        return self.l1_size // (self.l1_ways * self.line_size)


@dataclass(frozen=True)
class LevelParams(Record):
    """Geometry and policies of one cache level, as plain data.

    Policies are stored as their string values (``"write-back"``,
    ``"write-allocate"``) so the object round-trips through canonical
    JSON without custom encoders.
    """

    name: str
    size_bytes: int
    ways: int
    policy: str
    write_policy: str = WritePolicy.WRITE_BACK.value
    allocation_policy: str = AllocationPolicy.WRITE_ALLOCATE.value

    def __post_init__(self) -> None:
        try:
            WritePolicy(self.write_policy)
        except ValueError:
            raise ConfigurationError(
                f"{self.name}: unknown write policy {self.write_policy!r}; "
                f"valid: {', '.join(p.value for p in WritePolicy)}"
            ) from None
        try:
            AllocationPolicy(self.allocation_policy)
        except ValueError:
            raise ConfigurationError(
                f"{self.name}: unknown allocation policy "
                f"{self.allocation_policy!r}; "
                f"valid: {', '.join(p.value for p in AllocationPolicy)}"
            ) from None


#: RNG derivation labels by level index; fixed so that params-built
#: hierarchies consume exactly the streams the historic factories did.
_LEVEL_RNG_KEYS = ("l1", "l2", "llc")

#: Caps that :meth:`HierarchyParams.validate` puts on a geometry from a
#: request: far above every hierarchy in the repo (16 ways, 2,048 sets,
#: 4 cores) and far below one whose construction would exhaust a worker.
_MAX_WAYS = 64
_MAX_SETS = 1 << 16
_MAX_CORES = 64


@dataclass(frozen=True)
class HierarchyParams(Record):
    """The single source of truth for hierarchy geometry.

    ``make_xeon_hierarchy`` / ``make_tiny_hierarchy`` and
    ``ScenarioSpec.hierarchy`` all build from this object, so geometry
    defaults exist in one place.  :meth:`build` replicates the historic
    construction exactly — same level names, same RNG derivation labels
    in the same order — so hierarchies built either way are
    bit-identical.
    """

    levels: Tuple[LevelParams, ...]
    line_size: int = 64
    #: Number of cores.  1 (the default) is the historic single-core
    #: hierarchy; >= 2 builds a :class:`~repro.coherence.hierarchy.
    #: CoherentHierarchy` with one private copy of ``levels[0]`` per core
    #: over the shared deeper levels, kept coherent by a MESI directory.
    #: Left out of ``to_dict`` at 1, so every single-core spec keeps the
    #: canonical form that ``scenarios/KEYS.json`` pins.
    cores: int = field(default=1, metadata=OMIT_AT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("HierarchyParams needs at least one level")
        if len(self.levels) > len(_LEVEL_RNG_KEYS):
            raise ConfigurationError(
                f"HierarchyParams supports at most {len(_LEVEL_RNG_KEYS)} "
                f"levels, got {len(self.levels)}"
            )
        if self.cores < 1:
            raise ConfigurationError(
                f"cores must be >= 1, got {self.cores}"
            )
        if self.cores > 1 and len(self.levels) < 2:
            raise ConfigurationError(
                "a multi-core hierarchy needs a shared level below the "
                "per-core L1s"
            )

    @classmethod
    def xeon(
        cls,
        config: Optional[XeonE5_2650Config] = None,
        cores: int = 1,
        **overrides: object,
    ) -> "HierarchyParams":
        """Params for the paper's Xeon E5-2650 (``overrides`` as in
        :func:`make_xeon_hierarchy`, e.g. ``l1_policy="random"``).

        ``cores > 1`` replicates the L1D per core over the shared L2/LLC
        (see :mod:`repro.coherence`)."""
        if config is None:
            config = XeonE5_2650Config()
        if overrides:
            config = dataclass_replace(config, **overrides)
        return cls(
            cores=cores,
            levels=(
                LevelParams(
                    name="L1D",
                    size_bytes=config.l1_size,
                    ways=config.l1_ways,
                    policy=config.l1_policy,
                    write_policy=config.l1_write_policy.value,
                    allocation_policy=config.l1_allocation_policy.value,
                ),
                LevelParams(
                    name="L2",
                    size_bytes=config.l2_size,
                    ways=config.l2_ways,
                    policy=config.l2_policy,
                ),
                LevelParams(
                    name="LLC",
                    size_bytes=config.llc_size,
                    ways=config.llc_ways,
                    policy=config.llc_policy,
                ),
            ),
            line_size=config.line_size,
        )

    @classmethod
    def tiny(
        cls,
        l1_policy: str = "lru",
        l1_write_policy: WritePolicy = WritePolicy.WRITE_BACK,
    ) -> "HierarchyParams":
        """Params for the 2-level, 4-set unit-test hierarchy."""
        return cls(
            levels=(
                LevelParams(
                    name="L1-tiny",
                    size_bytes=512,
                    ways=2,
                    policy=l1_policy,
                    write_policy=l1_write_policy.value,
                ),
                LevelParams(
                    name="L2-tiny",
                    size_bytes=4096,
                    ways=4,
                    policy="lru",
                ),
            ),
        )

    def build(
        self,
        *,
        rng: Optional[random.Random] = None,
        engine: Optional[str] = None,
        latency: Optional[LatencyModel] = None,
    ) -> CacheHierarchy:
        """Construct the hierarchy these params describe.

        RNG streams are derived from ``rng`` in level order with the
        fixed labels ``l1``/``l2``/``llc``, then ``hierarchy`` — the
        exact draw sequence of the historic factory functions, so
        single-core hierarchies stay bit-identical.  With ``cores > 1``
        the per-core L1s use ``l1/core0`` … instead (a new stream
        family), and the result is a
        :class:`~repro.coherence.hierarchy.CoherentHierarchy`.
        """
        if self.cores > 1:
            # Imported lazily: repro.coherence builds on repro.cache.
            from repro.coherence.hierarchy import make_coherent_hierarchy

            return make_coherent_hierarchy(  # type: ignore[return-value]
                cores=self.cores,
                levels=self.levels,
                line_size=self.line_size,
                rng=rng,
                engine=engine,
                latency=latency,
            )
        return _build_single_core(self, rng, engine, latency)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` where :meth:`build` would,
        without building a set (sizes may come from a request), and
        beyond 64 ways or 2^16 sets a level or 64 cores."""
        if self.cores > _MAX_CORES:
            raise ConfigurationError(
                f"cores must be <= {_MAX_CORES}, got {self.cores}"
            )
        for level in self.levels:
            layout = cache_layout(
                level.name, level.size_bytes, level.ways, self.line_size
            )
            if level.ways > _MAX_WAYS or layout.num_sets > _MAX_SETS:
                raise ConfigurationError(
                    f"{level.name}: {level.ways} ways and {layout.num_sets} "
                    f"sets exceed the caps of {_MAX_WAYS} ways and "
                    f"{_MAX_SETS} sets"
                )
            make_policy_factory(level.policy).func.check_ways(level.ways)
        if self.cores > 1:
            # Imported lazily: repro.coherence builds on repro.cache.
            from repro.coherence.hierarchy import check_private_l1s

            check_private_l1s(self.levels[:1], self.levels[1:])
        else:
            check_level_order(self.levels)


def _build_single_core(
    params: HierarchyParams,
    rng: Optional[random.Random],
    engine: Optional[str],
    latency: Optional[LatencyModel],
    make_l1: Optional[Callable[..., Cache]] = None,
) -> CacheHierarchy:
    """One cache of ``engine``'s class per level of ``params``, except an
    L1D from ``make_l1`` when given (see :func:`_defended_xeon_hierarchy`)."""
    cache_cls = _cache_class(engine)
    master = ensure_rng(rng)
    caches: List[Cache] = []
    for index, level in enumerate(params.levels):
        kwargs = dict(
            size_bytes=level.size_bytes,
            associativity=level.ways,
            line_size=params.line_size,
            policy_factory=make_policy_factory(level.policy),
            write_policy=WritePolicy(level.write_policy),
            allocation_policy=AllocationPolicy(level.allocation_policy),
            rng=derive_rng(master, _LEVEL_RNG_KEYS[index]),
        )
        if index == 0 and make_l1 is not None:
            caches.append(make_l1(master, **kwargs))
        else:
            caches.append(cache_cls(level.name, **kwargs))
    return CacheHierarchy(
        levels=caches,
        latency=latency,
        rng=derive_rng(master, "hierarchy"),
    )


def _defended_xeon_hierarchy(
    make_l1: Callable[..., Cache],
    config: Optional[XeonE5_2650Config],
    rng: Optional[random.Random],
) -> CacheHierarchy:
    """The Xeon hierarchy of ``config`` with a defense's L1D; only
    :mod:`repro.defenses` calls it.

    ``make_l1(master, **level)`` gets the arguments every level gets (its
    ``rng`` already derived as ``l1``) and the master generator, from
    which random fill derives ``l1-fill`` before L2's stream.  L2 and LLC
    follow the selected engine like every other hierarchy's.
    """
    if config is None:
        config = XeonE5_2650Config()
    return _build_single_core(
        HierarchyParams.xeon(config), rng, None, config.latency, make_l1
    )


def _cache_class(engine: Optional[str]):
    """Resolve the Cache class for ``engine`` (None = process default).

    Imported lazily so ``repro.cache`` does not depend on ``repro.engine``
    at import time; the fast engine's class has the exact constructor
    signature of :class:`Cache`.
    """
    from repro.engine.selection import cache_class

    return cache_class(engine)


def make_xeon_hierarchy(
    *,
    config: Optional[XeonE5_2650Config] = None,
    rng: Optional[random.Random] = None,
    engine: Optional[str] = None,
    **overrides: object,
) -> CacheHierarchy:
    """Build the modelled Xeon E5-2650 hierarchy (keyword-only).

    ``overrides`` are applied on top of ``config`` (or the defaults), e.g.
    ``make_xeon_hierarchy(l1_policy="random")`` for the Section 6.1
    experiments.  ``engine`` picks the cache core ("reference" or "fast",
    see :mod:`repro.engine.selection`); ``None`` defers to the process-wide
    selection, so profiles/CLI control it without threading the knob
    through every call site.  Both engines consume identical RNG streams,
    so results are bit-identical either way.
    """
    if config is None:
        config = XeonE5_2650Config()
    engine = overrides.pop("engine", engine)  # type: ignore[assignment]
    if overrides:
        config = dataclass_replace(config, **overrides)
    params = HierarchyParams.xeon(config)
    return params.build(rng=rng, engine=engine, latency=config.latency)


def make_tiny_hierarchy(
    *,
    l1_policy: str = "lru",
    rng: Optional[random.Random] = None,
    l1_write_policy: WritePolicy = WritePolicy.WRITE_BACK,
    engine: Optional[str] = None,
) -> CacheHierarchy:
    """A 2-level, 4-set hierarchy small enough to exhaust in unit tests."""
    params = HierarchyParams.tiny(l1_policy, l1_write_policy)
    return params.build(rng=rng, engine=engine)


def dataclass_replace(config: XeonE5_2650Config, **overrides: object) -> XeonE5_2650Config:
    """``dataclasses.replace`` with a friendlier error for bad field names."""
    import dataclasses

    valid = {f.name for f in dataclasses.fields(config)}
    unknown = set(overrides) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown config field(s): {', '.join(sorted(unknown))}; "
            f"valid fields: {', '.join(sorted(valid))}"
        )
    return dataclasses.replace(config, **overrides)
