"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the complete, versioned description of one
covert-channel scenario as *data*: hierarchy topology, channel geometry,
codec, sender/receiver/co-runner programs, fault regime, detector set,
defense selection and sweep parameters.  Specs serialise through
:func:`repro.common.canonical.canonical_json`, so every spec has a stable
content address (:func:`scenario_key`) the service uses to memoise runs,
and compile via :func:`repro.scenario.compile.compile_scenario` into the
exact call sequences the historic experiment modules performed — the
rebased experiments are bit-identical to their pre-spec output.

Design rules:

* every node is a frozen dataclass of plain data and a
  :class:`~repro.common.records.Record`: a field's declaration is its
  schema.  Its type says what JSON it takes (an ``int`` takes no
  ``bool``, a ``float`` takes an int, a
  :data:`~repro.common.records.Number` keeps an int or a float as given,
  ``Optional`` takes ``null``), its default is what a missing key reads
  as, and :data:`~repro.common.records.OMIT_AT_DEFAULT` leaves it out of
  ``to_dict`` at that default;
* ``from_dict`` is strict — unknown fields, wrong types and stale
  ``schema_version`` values raise
  :class:`~repro.common.errors.ConfigurationError` instead of being
  silently dropped or coerced (a typo must never silently change what a
  key hashes);
* profile-dependent quantities are explicit :class:`Counts` /
  :class:`Axis` pairs, resolved against a
  :class:`~repro.experiments.profiles.RunProfile` at compile time, so
  one spec describes both the CI-speed and the full-budget run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from repro.cache.configs import HierarchyParams
from repro.common.canonical import canonical_digest, canonical_json
from repro.common.errors import ConfigurationError
from repro.common.records import Number, Record
from repro.experiments.profiles import RunProfile
from repro.faults.spec import FaultSpec

#: Bump on any change to the spec layout below; stale specs fail loudly.
SCENARIO_SCHEMA_VERSION = 1

#: Scenario kinds with a compiled runner (see repro.scenario.compile).
SCENARIO_KINDS = (
    "wb_ber_sweep",
    "wb_trace",
    "wb_level_compare",
    "wb_fault_sweep",
    "online_detection",
    "defense_eval",
    "cross_core_wb",
    "closed_loop_defense",
)


# ----------------------------------------------------------------------
# Profile-dependent quantities
# ----------------------------------------------------------------------

#: Cap on a :class:`Counts` budget from a request: far above every
#: committed spec (256 message bits at most), and it stops a count such
#: as 10**12 from holding a worker until its job's timeout, or for good
#: when the job has none.
_MAX_COUNT = 10_000


def _check_at_least(minimum: int, name: str, *values: int) -> None:
    """Raise :class:`ConfigurationError` if any of ``values`` is below
    ``minimum``."""
    for value in values:
        if value < minimum:
            raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def _check_choice(what: str, value: str, valid: Tuple[str, ...]) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is in ``valid``."""
    if value not in valid:
        raise ConfigurationError(
            f"unknown {what} {value!r}; valid: {', '.join(valid)}"
        )


#: The suspects a detection scenario can run beside its detectors.
_SUSPECTS = ("benign", "wb", "lru")


@dataclass(frozen=True)
class Counts(Record):
    """A repetition count with explicit quick and full budgets.

    Resolved through :meth:`RunProfile.count`, so custom-scaled profiles
    behave exactly as they did for the imperative experiments.
    """

    quick: int
    full: int

    def __post_init__(self) -> None:
        _check_at_least(1, "counts", self.quick, self.full)
        if max(self.quick, self.full) > _MAX_COUNT:
            raise ConfigurationError(
                f"counts must be <= {_MAX_COUNT}, got {self.quick} quick "
                f"and {self.full} full"
            )

    def resolve(self, profile: RunProfile) -> int:
        return profile.count(quick=self.quick, full=self.full)


@dataclass(frozen=True)
class Axis(Record):
    """A sweep axis with explicit quick and full point sets."""

    quick: Tuple[Number, ...]
    full: Tuple[Number, ...]

    def __post_init__(self) -> None:
        if not self.quick or not self.full:
            raise ConfigurationError("axis needs at least one point per budget")

    def resolve(self, profile: RunProfile) -> Tuple[Number, ...]:
        return self.quick if profile.is_reduced else self.full


# ----------------------------------------------------------------------
# Channel building blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec(Record):
    """Symbol encoding: which dirty-line counts mean which bits."""

    kind: str = "binary"  # "binary" | "multibit"
    #: Binary encoding: dirty lines for a 1-bit (paper's ``d``).
    d_on: int = 1
    #: Multi-bit encoding: symbol value -> dirty-line count; ``None``
    #: selects the paper's 2-bit scheme {0, 3, 5, 8}.
    level_map: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        # Keys name symbols: build() parses them back to ints.
        if self.level_map is not None and not all(
            isinstance(symbol, str) and symbol.isdecimal()
            for symbol in self.level_map
        ):
            raise ConfigurationError(
                f"'level_map' keys must be symbol numbers, "
                f"got {list(self.level_map)}"
            )

    def build(self):
        """Construct the live codec this spec describes."""
        from repro.channels.encoding import BinaryDirtyCodec, MultiBitDirtyCodec

        if self.kind == "binary":
            return BinaryDirtyCodec(d_on=self.d_on)
        if self.kind == "multibit":
            if self.level_map is None:
                return MultiBitDirtyCodec()
            return MultiBitDirtyCodec(
                {int(symbol): int(count) for symbol, count in self.level_map.items()}
            )
        raise ConfigurationError(
            f"unknown codec kind {self.kind!r}; valid: binary, multibit"
        )


@dataclass(frozen=True)
class SenderSpec(Record):
    """The transmitting program (paper's Algorithm 1 sender)."""

    kind: str = "wb_paced_store"
    #: Re-load evicted lines before storing (slower, more reliable).
    ensure_resident: bool = False

    def __post_init__(self) -> None:
        _check_choice("sender kind", self.kind, ("wb_paced_store",))


@dataclass(frozen=True)
class ReceiverSpec(Record):
    """The probing program (paper's Algorithm 2/3 receiver)."""

    kind: str = "wb_probe"
    #: Fixed phase offset in periods; ``None`` = preamble alignment.
    phase: Optional[float] = None
    alignment_slack_symbols: int = 4

    def __post_init__(self) -> None:
        _check_choice("receiver kind", self.kind, ("wb_probe",))


@dataclass(frozen=True)
class CoRunnerSpec(Record):
    """A third-party program sharing the machine (e.g. a set prober)."""

    kind: str = "periodic_prober"
    lines: int = 10
    sweeps_per_period: int = 10

    def __post_init__(self) -> None:
        _check_choice("co-runner kind", self.kind, ("periodic_prober",))
        _check_at_least(1, "lines", self.lines)
        _check_at_least(1, "sweeps_per_period", self.sweeps_per_period)


@dataclass(frozen=True)
class ChannelSpec(Record):
    """Structural channel parameters shared by every run of a scenario.

    Defaults mirror :class:`~repro.channels.wb.WBChannelConfig`; the L2
    deployment has its own defaults
    (:class:`~repro.channels.wb.l2.L2WBChannelConfig`) which the
    ``wb_level_compare`` compiler applies for its L2 legs.
    """

    level: str = "l1"  # "l1" | "l2"
    codec: CodecSpec = field(default_factory=CodecSpec)
    target_set: int = 21
    replacement_set_size: int = 10
    start_time: int = 30000
    sender: SenderSpec = field(default_factory=SenderSpec)
    receiver: ReceiverSpec = field(default_factory=ReceiverSpec)

    def __post_init__(self) -> None:
        _check_choice("channel level", self.level, ("l1", "l2"))
        _check_at_least(0, "target_set", self.target_set)
        _check_at_least(1, "replacement_set_size", self.replacement_set_size)


@dataclass(frozen=True)
class DetectorSpec(Record):
    """One online detector attachment (see repro.telemetry.detectors)."""

    kind: str  # "miss_rate" | "writeback_burst"
    name: str
    window: int
    segment: int = 0
    max_lag: int = 0

    def __post_init__(self) -> None:
        _check_choice("detector kind", self.kind, ("miss_rate", "writeback_burst"))

    def build(self, owner: int, clock_owner: int, baseline=None):
        """The live detector this spec describes, watching thread
        ``owner``'s cache events on ``clock_owner``'s access clock."""
        from repro.telemetry.detectors import (
            MissRateMonitor,
            WritebackBurstDetector,
        )

        if self.kind == "miss_rate":
            return MissRateMonitor(
                window=self.window,
                owner=owner,
                clock_owner=clock_owner,
                baseline=baseline,
            )
        return WritebackBurstDetector(
            window=self.window,
            segment=self.segment,
            max_lag=self.max_lag,
            owner=owner,
            clock_owner=clock_owner,
            baseline=baseline,
        )


# ----------------------------------------------------------------------
# Kind-specific parameter blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BerSweepParams(Record):
    """BER vs transmission-rate sweep (Figures 6 and 8).

    When ``d_values`` is set the sweep runs one *binary* codec per ``d``
    (Figure 6); otherwise it runs the scenario's single channel codec
    (Figure 8).
    """

    periods: Tuple[int, ...]
    d_values: Optional[Axis] = None
    messages: Counts = field(default_factory=lambda: Counts(6, 90))
    message_bits: Counts = field(default_factory=lambda: Counts(64, 128))
    calibration_repetitions: Counts = field(default_factory=lambda: Counts(20, 60))
    seed_stride: int = 10007

    def __post_init__(self) -> None:
        if not self.periods:
            raise ConfigurationError("ber sweep needs at least one period")
        _check_at_least(1, "period", *self.periods)


@dataclass(frozen=True)
class TraceParams(Record):
    """Single instrumented run capturing the receiver trace (Figure 7)."""

    period: int = 4000
    message_bits: Counts = field(default_factory=lambda: Counts(64, 256))
    calibration_repetitions: Counts = field(default_factory=lambda: Counts(20, 60))

    def __post_init__(self) -> None:
        _check_at_least(1, "period", self.period)


@dataclass(frozen=True)
class LevelCompareParams(Record):
    """L1 vs L2 deployment comparison (Section 3 extension)."""

    l1_periods: Tuple[int, ...] = (5500, 11000)
    l2_periods: Tuple[int, ...] = (22000, 44000)
    messages: Counts = field(default_factory=lambda: Counts(4, 20))
    message_bits: Counts = field(default_factory=lambda: Counts(48, 128))
    l1_calibration_repetitions: int = 40
    seed_stride: int = 41

    def __post_init__(self) -> None:
        _check_at_least(1, "period", *self.l1_periods, *self.l2_periods)


@dataclass(frozen=True)
class FaultSweepParams(Record):
    """Raw vs hardened protocol under a fault-intensity sweep."""

    period: int = 5500
    raw_message_bits: int = 80
    payload_bits: int = 64
    intensities: Axis = field(
        default_factory=lambda: Axis(quick=(0.0, 1.0), full=(0.0, 0.5, 1.0, 2.0, 3.0))
    )
    runs_per_point: Counts = field(default_factory=lambda: Counts(1, 3))
    fault: FaultSpec = field(default_factory=FaultSpec)
    collapse_threshold: float = 0.10
    seed_stride: int = 991

    def __post_init__(self) -> None:
        _check_at_least(1, "period", self.period)


@dataclass(frozen=True)
class OnlineDetectionParams(Record):
    """WB vs LRU vs benign suspects under live detectors (Section 7)."""

    period: int = 11000
    target_set: int = 21
    start_time: int = 2_000_000
    num_symbols: Counts = field(default_factory=lambda: Counts(48, 192))
    prober: CoRunnerSpec = field(default_factory=CoRunnerSpec)
    detectors: Tuple[DetectorSpec, ...] = field(
        default_factory=lambda: (
            DetectorSpec(kind="miss_rate", name="monitor", window=100),
            DetectorSpec(
                kind="writeback_burst", name="burst", window=20, segment=30, max_lag=12
            ),
        )
    )
    suspects: Tuple[str, ...] = ("benign", "wb", "lru")
    threshold_sigmas: float = 3.0
    calibration_seed_offset: int = 7919
    roc_points: int = 13

    def __post_init__(self) -> None:
        _check_at_least(1, "period", self.period)
        _check_at_least(0, "target_set", self.target_set)
        if not self.detectors:
            raise ConfigurationError("online detection needs at least one detector")
        for suspect in self.suspects:
            _check_choice("suspect", suspect, _SUSPECTS)


@dataclass(frozen=True)
class DefenseEvalParams(Record):
    """Section 8 defense evaluation over a seed range."""

    num_seeds: Counts = field(default_factory=lambda: Counts(2, 6))
    #: ``None`` = every registered defense; else a subset by name.
    defenses: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class CrossCoreParams(Record):
    """Cross-core WB channel over MESI downgrade write-backs.

    Requires a multi-core hierarchy (``cores >= 2`` in the spec's
    :class:`~repro.cache.configs.HierarchyParams`); sender runs on
    core 0, receiver on core 1.  The channel structure (codec,
    target set, start time, receiver phase/slack) comes from the
    spec's :class:`ChannelSpec`; the per-core stealth re-run of the
    Section 7 question is configured here.
    """

    period: int = 9000
    #: Independent messages, seeded ``seed * seed_stride + index``.
    messages: Counts = field(default_factory=lambda: Counts(1, 3))
    message_bits: Counts = field(default_factory=lambda: Counts(24, 64))
    calibration_repetitions: Counts = field(default_factory=lambda: Counts(12, 30))
    seed_stride: int = 101
    #: Detectors attached per core during transmissions (stealth check).
    #: Windows are counted in clock-anchor accesses; the cross-core
    #: receiver only touches ``d_on`` lines per period (no sweeps), so
    #: the burst geometry is much smaller than the single-core default
    #: or segments would never complete.
    detectors: Tuple[DetectorSpec, ...] = field(
        default_factory=lambda: (
            DetectorSpec(kind="miss_rate", name="monitor", window=100),
            DetectorSpec(
                kind="writeback_burst", name="burst", window=4, segment=6, max_lag=3
            ),
        )
    )
    threshold_sigmas: float = 3.0
    calibration_seed_offset: int = 7919
    #: Benign co-run length (periods) used to fit detector baselines.
    benign_periods: Counts = field(default_factory=lambda: Counts(48, 160))

    def __post_init__(self) -> None:
        _check_at_least(1, "period", self.period)
        if not self.detectors:
            raise ConfigurationError(
                "cross_core_wb needs at least one detector for the stealth check"
            )


@dataclass(frozen=True)
class ClosedLoopParams(Record):
    """Live detect→fuse→respond loop around one suspect (Section 7, closed).

    One co-run per suspect: the suspect modulates the dirty-state
    channel on ``target_set``, a receiver thread decodes it (one
    replacement-set chase per period, doubling as the detectors' pacing
    clock), the configured detectors stream z-scores into a
    :class:`~repro.orchestration.aggregator.FleetAggregator`
    (``fusion_k``-of-n sources with ``fusion_min_hits`` over-threshold
    scores within ``fusion_window`` clock units), and on the fused alarm
    a :class:`~repro.orchestration.responder.DefenseResponder` flips the
    hierarchy to ``defense``.  Channel capacity and BER are measured
    before vs. after the flip.

    Detector windows are denominated in receiver L1 accesses (the
    receiver chases ``replacement_set_size`` lines once per period, so
    ``window == replacement_set_size`` means one window per period).
    """

    period: int = 11000
    target_set: int = 21
    start_time: int = 2_000_000
    num_symbols: Counts = field(default_factory=lambda: Counts(48, 192))
    replacement_set_size: int = 10
    receiver_phase: float = 0.5
    detectors: Tuple[DetectorSpec, ...] = field(
        default_factory=lambda: (
            DetectorSpec(kind="miss_rate", name="monitor_fast", window=10),
            DetectorSpec(kind="miss_rate", name="monitor_slow", window=30),
            DetectorSpec(
                kind="writeback_burst", name="burst", window=10, segment=12, max_lag=6
            ),
        )
    )
    suspects: Tuple[str, ...] = ("wb", "lru")
    threshold_sigmas: float = 3.0
    calibration_seed_offset: int = 7919
    decoder_repetitions: Counts = field(default_factory=lambda: Counts(12, 30))
    fusion_k: int = 2
    fusion_window: int = 300
    fusion_min_hits: int = 1
    #: Clock readings at or below this are published but never count as
    #: hits: the first windows after the stats reset straddle the
    #: suspects' startup transient and score as spurious outliers for
    #: benign and channel processes alike.
    fusion_warmup: int = 40
    defense: str = "write_through"

    def __post_init__(self) -> None:
        _check_at_least(1, "period", self.period)
        _check_at_least(0, "target_set", self.target_set)
        _check_at_least(1, "replacement_set_size", self.replacement_set_size)
        if not self.detectors:
            raise ConfigurationError(
                "closed_loop_defense needs at least one detector"
            )
        for suspect in self.suspects:
            _check_choice("suspect", suspect, _SUSPECTS)
        if self.fusion_k <= 0 or self.fusion_k > len(self.detectors):
            raise ConfigurationError(
                f"fusion_k must be in 1..{len(self.detectors)} "
                f"(the source count), got {self.fusion_k}"
            )
        if self.fusion_window <= 0:
            raise ConfigurationError(
                f"fusion_window must be positive, got {self.fusion_window}"
            )
        if self.fusion_min_hits <= 0:
            raise ConfigurationError(
                f"fusion_min_hits must be positive, got {self.fusion_min_hits}"
            )
        if self.fusion_warmup < 0:
            raise ConfigurationError(
                f"fusion_warmup must be >= 0, got {self.fusion_warmup}"
            )
        if self.defense not in ("write_through", "partition"):
            raise ConfigurationError(
                f"defense must be write_through or partition, got {self.defense!r}"
            )
        if not 0.0 <= self.receiver_phase < 1.0:
            raise ConfigurationError(
                f"receiver_phase must be in [0, 1), got {self.receiver_phase}"
            )



_PARAMS_TYPES: Dict[str, Type] = {
    "wb_ber_sweep": BerSweepParams,
    "wb_trace": TraceParams,
    "wb_level_compare": LevelCompareParams,
    "wb_fault_sweep": FaultSweepParams,
    "online_detection": OnlineDetectionParams,
    "defense_eval": DefenseEvalParams,
    "cross_core_wb": CrossCoreParams,
    "closed_loop_defense": ClosedLoopParams,
}


# ----------------------------------------------------------------------
# The spec root
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec(Record):
    """One complete scenario, as canonicalisable data."""

    name: str
    kind: str
    params: object
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    #: ``None`` = the default Xeon E5-2650 hierarchy (the paper's).
    hierarchy: Optional[HierarchyParams] = None
    title: str = ""
    paper_reference: str = ""
    description: str = ""
    schema_version: int = SCENARIO_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.schema_version != SCENARIO_SCHEMA_VERSION:
            raise ConfigurationError(
                f"scenario {self.name!r} has schema_version "
                f"{self.schema_version}; this build understands only "
                f"{SCENARIO_SCHEMA_VERSION} — regenerate the spec"
            )
        expected = _PARAMS_TYPES.get(self.kind)
        if expected is None:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; valid: "
                f"{', '.join(SCENARIO_KINDS)}"
            )
        if not isinstance(self.params, expected):
            raise ConfigurationError(
                f"scenario {self.name!r}: kind {self.kind!r} requires "
                f"{expected.__name__} params, got {type(self.params).__name__}"
            )

    def validate(self) -> None:
        """Check parts that only fail on construction of live objects or
        against other fields: the codec, the hierarchy, every target set
        against the first level's set count, and a defense subset's
        names.  A ``defense_eval`` spec must leave ``hierarchy`` and
        ``channel`` at their defaults: it builds its own defended machines
        and channel, so any other value would be ignored under a key of
        its own."""
        if self.kind == "defense_eval" and (
            self.hierarchy is not None or self.channel != ChannelSpec()
        ):
            raise ConfigurationError(
                "defense_eval builds its own machines and channel: "
                "hierarchy must be null and channel at its defaults"
            )
        self.channel.codec.build()
        hierarchy = self.hierarchy
        if hierarchy is None:
            hierarchy = HierarchyParams.xeon()
        else:
            hierarchy.validate()
        l1 = hierarchy.levels[0]
        num_sets = l1.size_bytes // (l1.ways * hierarchy.line_size)
        for target_set in (
            self.channel.target_set,
            getattr(self.params, "target_set", 0),
        ):
            if target_set >= num_sets:
                raise ConfigurationError(
                    f"target_set {target_set} out of range [0, {num_sets}) "
                    f"of {l1.name}"
                )
        if isinstance(self.params, DefenseEvalParams) and self.params.defenses:
            # Imported only here: the defense harness is heavy.
            from repro.defenses.evaluation import available_defenses

            valid = tuple(available_defenses())
            for name in self.params.defenses:
                _check_choice("defense", name, valid)

    # -- serialisation --------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "ScenarioSpec":
        """Read ``params`` as the type ``kind`` names (an absent
        ``params`` at that type's defaults), every other field as
        declared; a spec without ``schema_version`` is refused."""
        if not isinstance(data, dict) or "schema_version" not in data:
            raise ConfigurationError(
                "scenario spec must be a JSON object with a schema_version; "
                "refusing to guess"
            )
        kind = data.get("kind")
        if kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {kind!r}; valid: {', '.join(SCENARIO_KINDS)}"
            )
        params = _PARAMS_TYPES[kind].from_dict(data.get("params", {}))
        return super().from_dict({**data, "params": params})

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise; ``indent=None`` gives the canonical compact form."""
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def scenario_key(spec: ScenarioSpec) -> str:
    """Content address of a scenario spec (SHA-256 of canonical JSON)."""
    return canonical_digest(spec.to_dict(), require_version=True)
