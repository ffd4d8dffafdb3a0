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

* every node is a frozen dataclass with plain-data fields only;
* ``from_dict`` is strict — unknown fields and stale ``schema_version``
  values raise :class:`~repro.common.errors.ConfigurationError` instead
  of being silently dropped (a typo must never silently change what a
  key hashes);
* profile-dependent quantities are explicit :class:`Counts` /
  :class:`Axis` pairs, resolved against a
  :class:`~repro.experiments.profiles.RunProfile` at compile time, so
  one spec describes both the CI-speed and the full-budget run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from repro.cache.configs import HierarchyParams
from repro.common.canonical import canonical_digest, canonical_json
from repro.common.errors import ConfigurationError
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


#: Marks a :func:`_read` field that has no default.
_REQUIRED = object()

_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
    list: "a list",
    dict: "a JSON object",
}


def _checked(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else a loud ConfigurationError.

    An ``int`` field takes no ``bool`` (though ``bool`` subclasses
    ``int``); a ``float`` field takes an ``int`` or a ``float`` and gives
    ``float(value)``; every other kind takes only its own type.
    """
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigurationError(
        f"{name!r} must be {_KIND_NAMES[kind]}, got {value!r}"
    )


def _read(data, name: str, kind: type, default=_REQUIRED):
    """Field ``name`` of ``data``, checked by :func:`_checked`.

    A missing field takes ``default``; a missing field without one is an
    error.  A field whose default is ``None`` also takes ``null``.
    """
    if name not in data:
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required field {name!r}")
        return default
    value = data[name]
    if value is None and default is None:
        return None
    return _checked(value, kind, name)


def _read_tuple(data, name: str, kind: Optional[type], default=_REQUIRED):
    """A list field as a tuple, each item checked as ``kind``.

    ``kind=None`` keeps the items as given (an :class:`Axis` point may be
    an ``int`` or a ``float``, and its key hashes which).
    """
    items = _read(data, name, list, default)
    if items is None:
        return None
    if kind is not None:
        items = [_checked(item, kind, name) for item in items]
    return tuple(items)


def _check_fields(cls, data, context: str) -> None:
    """Reject non-dicts and unknown keys loudly."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{context} must be a JSON object, got {type(data).__name__}"
        )
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown {context} field(s): {', '.join(sorted(unknown))}; "
            f"valid fields: {', '.join(sorted(valid))}"
        )


# ----------------------------------------------------------------------
# Profile-dependent quantities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Counts:
    """A repetition count with explicit quick and full budgets.

    Resolved through :meth:`RunProfile.count`, so custom-scaled profiles
    behave exactly as they did for the imperative experiments.
    """

    quick: int
    full: int

    def resolve(self, profile: RunProfile) -> int:
        return profile.count(quick=self.quick, full=self.full)

    def to_dict(self) -> Dict[str, object]:
        return {"quick": self.quick, "full": self.full}

    @classmethod
    def from_dict(cls, data) -> "Counts":
        _check_fields(cls, data, "counts")
        return cls(quick=_read(data, "quick", int), full=_read(data, "full", int))


@dataclass(frozen=True)
class Axis:
    """A sweep axis with explicit quick and full point sets."""

    quick: Tuple[float, ...]
    full: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.quick or not self.full:
            raise ConfigurationError("axis needs at least one point per budget")

    def resolve(self, profile: RunProfile) -> Tuple[float, ...]:
        return self.quick if profile.is_reduced else self.full

    def to_dict(self) -> Dict[str, object]:
        return {"quick": list(self.quick), "full": list(self.full)}

    @classmethod
    def from_dict(cls, data) -> "Axis":
        _check_fields(cls, data, "axis")
        return cls(
            quick=_read_tuple(data, "quick", None),
            full=_read_tuple(data, "full", None),
        )


# ----------------------------------------------------------------------
# Channel building blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec:
    """Symbol encoding: which dirty-line counts mean which bits."""

    kind: str = "binary"  # "binary" | "multibit"
    #: Binary encoding: dirty lines for a 1-bit (paper's ``d``).
    d_on: int = 1
    #: Multi-bit encoding: symbol value -> dirty-line count; ``None``
    #: selects the paper's 2-bit scheme {0, 3, 5, 8}.
    level_map: Optional[Dict[str, int]] = None

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

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "d_on": self.d_on, "level_map": self.level_map}

    @classmethod
    def from_dict(cls, data) -> "CodecSpec":
        _check_fields(cls, data, "codec")
        level_map = _read(data, "level_map", dict, None)
        if level_map is not None:
            # Keys name symbols: build() parses them back to ints.
            level_map = {
                _checked(symbol, str, "level_map"): _checked(
                    count, int, "level_map"
                )
                for symbol, count in level_map.items()
            }
            if not all(symbol.isdecimal() for symbol in level_map):
                raise ConfigurationError(
                    f"'level_map' keys must be symbol numbers, "
                    f"got {sorted(level_map)}"
                )
        return cls(
            kind=_read(data, "kind", str, "binary"),
            d_on=_read(data, "d_on", int, 1),
            level_map=level_map,
        )


@dataclass(frozen=True)
class SenderSpec:
    """The transmitting program (paper's Algorithm 1 sender)."""

    kind: str = "wb_paced_store"
    #: Re-load evicted lines before storing (slower, more reliable).
    ensure_resident: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "ensure_resident": self.ensure_resident}

    @classmethod
    def from_dict(cls, data) -> "SenderSpec":
        _check_fields(cls, data, "sender")
        return cls(
            kind=_read(data, "kind", str, "wb_paced_store"),
            ensure_resident=_read(data, "ensure_resident", bool, False),
        )


@dataclass(frozen=True)
class ReceiverSpec:
    """The probing program (paper's Algorithm 2/3 receiver)."""

    kind: str = "wb_probe"
    #: Fixed phase offset in periods; ``None`` = preamble alignment.
    phase: Optional[float] = None
    alignment_slack_symbols: int = 4

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "alignment_slack_symbols": self.alignment_slack_symbols,
        }

    @classmethod
    def from_dict(cls, data) -> "ReceiverSpec":
        _check_fields(cls, data, "receiver")
        return cls(
            kind=_read(data, "kind", str, "wb_probe"),
            phase=_read(data, "phase", float, None),
            alignment_slack_symbols=_read(data, "alignment_slack_symbols", int, 4),
        )


@dataclass(frozen=True)
class CoRunnerSpec:
    """A third-party program sharing the machine (e.g. a set prober)."""

    kind: str = "periodic_prober"
    lines: int = 10
    sweeps_per_period: int = 10

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "lines": self.lines,
            "sweeps_per_period": self.sweeps_per_period,
        }

    @classmethod
    def from_dict(cls, data) -> "CoRunnerSpec":
        _check_fields(cls, data, "co-runner")
        return cls(
            kind=_read(data, "kind", str, "periodic_prober"),
            lines=_read(data, "lines", int, 10),
            sweeps_per_period=_read(data, "sweeps_per_period", int, 10),
        )


@dataclass(frozen=True)
class ChannelSpec:
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
        if self.level not in ("l1", "l2"):
            raise ConfigurationError(
                f"channel level must be 'l1' or 'l2', got {self.level!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "codec": self.codec.to_dict(),
            "target_set": self.target_set,
            "replacement_set_size": self.replacement_set_size,
            "start_time": self.start_time,
            "sender": self.sender.to_dict(),
            "receiver": self.receiver.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "ChannelSpec":
        _check_fields(cls, data, "channel")
        return cls(
            level=_read(data, "level", str, "l1"),
            codec=CodecSpec.from_dict(data.get("codec", {})),
            target_set=_read(data, "target_set", int, 21),
            replacement_set_size=_read(data, "replacement_set_size", int, 10),
            start_time=_read(data, "start_time", int, 30000),
            sender=SenderSpec.from_dict(data.get("sender", {})),
            receiver=ReceiverSpec.from_dict(data.get("receiver", {})),
        )


@dataclass(frozen=True)
class DetectorSpec:
    """One online detector attachment (see repro.telemetry.detectors)."""

    kind: str  # "miss_rate" | "writeback_burst"
    name: str
    window: int
    segment: int = 0
    max_lag: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("miss_rate", "writeback_burst"):
            raise ConfigurationError(
                f"unknown detector kind {self.kind!r}; "
                f"valid: miss_rate, writeback_burst"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "window": self.window,
            "segment": self.segment,
            "max_lag": self.max_lag,
        }

    @classmethod
    def from_dict(cls, data) -> "DetectorSpec":
        _check_fields(cls, data, "detector")
        return cls(
            kind=_read(data, "kind", str),
            name=_read(data, "name", str),
            window=_read(data, "window", int),
            segment=_read(data, "segment", int, 0),
            max_lag=_read(data, "max_lag", int, 0),
        )


# ----------------------------------------------------------------------
# Kind-specific parameter blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BerSweepParams:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "periods": list(self.periods),
            "d_values": None if self.d_values is None else self.d_values.to_dict(),
            "messages": self.messages.to_dict(),
            "message_bits": self.message_bits.to_dict(),
            "calibration_repetitions": self.calibration_repetitions.to_dict(),
            "seed_stride": self.seed_stride,
        }

    @classmethod
    def from_dict(cls, data) -> "BerSweepParams":
        _check_fields(cls, data, "wb_ber_sweep params")
        d_values = data.get("d_values")
        return cls(
            periods=_read_tuple(data, "periods", int),
            d_values=None if d_values is None else Axis.from_dict(d_values),
            messages=Counts.from_dict(data.get("messages", {"quick": 6, "full": 90})),
            message_bits=Counts.from_dict(
                data.get("message_bits", {"quick": 64, "full": 128})
            ),
            calibration_repetitions=Counts.from_dict(
                data.get("calibration_repetitions", {"quick": 20, "full": 60})
            ),
            seed_stride=_read(data, "seed_stride", int, 10007),
        )


@dataclass(frozen=True)
class TraceParams:
    """Single instrumented run capturing the receiver trace (Figure 7)."""

    period: int = 4000
    message_bits: Counts = field(default_factory=lambda: Counts(64, 256))
    calibration_repetitions: Counts = field(default_factory=lambda: Counts(20, 60))

    def to_dict(self) -> Dict[str, object]:
        return {
            "period": self.period,
            "message_bits": self.message_bits.to_dict(),
            "calibration_repetitions": self.calibration_repetitions.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "TraceParams":
        _check_fields(cls, data, "wb_trace params")
        return cls(
            period=_read(data, "period", int, 4000),
            message_bits=Counts.from_dict(
                data.get("message_bits", {"quick": 64, "full": 256})
            ),
            calibration_repetitions=Counts.from_dict(
                data.get("calibration_repetitions", {"quick": 20, "full": 60})
            ),
        )


@dataclass(frozen=True)
class LevelCompareParams:
    """L1 vs L2 deployment comparison (Section 3 extension)."""

    l1_periods: Tuple[int, ...] = (5500, 11000)
    l2_periods: Tuple[int, ...] = (22000, 44000)
    messages: Counts = field(default_factory=lambda: Counts(4, 20))
    message_bits: Counts = field(default_factory=lambda: Counts(48, 128))
    l1_calibration_repetitions: int = 40
    seed_stride: int = 41

    def to_dict(self) -> Dict[str, object]:
        return {
            "l1_periods": list(self.l1_periods),
            "l2_periods": list(self.l2_periods),
            "messages": self.messages.to_dict(),
            "message_bits": self.message_bits.to_dict(),
            "l1_calibration_repetitions": self.l1_calibration_repetitions,
            "seed_stride": self.seed_stride,
        }

    @classmethod
    def from_dict(cls, data) -> "LevelCompareParams":
        _check_fields(cls, data, "wb_level_compare params")
        return cls(
            l1_periods=_read_tuple(data, "l1_periods", int, (5500, 11000)),
            l2_periods=_read_tuple(data, "l2_periods", int, (22000, 44000)),
            messages=Counts.from_dict(data.get("messages", {"quick": 4, "full": 20})),
            message_bits=Counts.from_dict(
                data.get("message_bits", {"quick": 48, "full": 128})
            ),
            l1_calibration_repetitions=_read(data, "l1_calibration_repetitions", int, 40),
            seed_stride=_read(data, "seed_stride", int, 41),
        )


@dataclass(frozen=True)
class FaultSweepParams:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "period": self.period,
            "raw_message_bits": self.raw_message_bits,
            "payload_bits": self.payload_bits,
            "intensities": self.intensities.to_dict(),
            "runs_per_point": self.runs_per_point.to_dict(),
            "fault": self.fault.to_dict(),
            "collapse_threshold": self.collapse_threshold,
            "seed_stride": self.seed_stride,
        }

    @classmethod
    def from_dict(cls, data) -> "FaultSweepParams":
        _check_fields(cls, data, "wb_fault_sweep params")
        return cls(
            period=_read(data, "period", int, 5500),
            raw_message_bits=_read(data, "raw_message_bits", int, 80),
            payload_bits=_read(data, "payload_bits", int, 64),
            intensities=Axis.from_dict(
                data.get(
                    "intensities",
                    {"quick": [0.0, 1.0], "full": [0.0, 0.5, 1.0, 2.0, 3.0]},
                )
            ),
            runs_per_point=Counts.from_dict(
                data.get("runs_per_point", {"quick": 1, "full": 3})
            ),
            fault=FaultSpec.from_dict(data.get("fault", FaultSpec().to_dict())),
            collapse_threshold=_read(data, "collapse_threshold", float, 0.10),
            seed_stride=_read(data, "seed_stride", int, 991),
        )


@dataclass(frozen=True)
class OnlineDetectionParams:
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
        if not self.detectors:
            raise ConfigurationError("online detection needs at least one detector")
        for suspect in self.suspects:
            if suspect not in ("benign", "wb", "lru"):
                raise ConfigurationError(
                    f"unknown suspect {suspect!r}; valid: benign, wb, lru"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "period": self.period,
            "target_set": self.target_set,
            "start_time": self.start_time,
            "num_symbols": self.num_symbols.to_dict(),
            "prober": self.prober.to_dict(),
            "detectors": [d.to_dict() for d in self.detectors],
            "suspects": list(self.suspects),
            "threshold_sigmas": self.threshold_sigmas,
            "calibration_seed_offset": self.calibration_seed_offset,
            "roc_points": self.roc_points,
        }

    @classmethod
    def from_dict(cls, data) -> "OnlineDetectionParams":
        _check_fields(cls, data, "online_detection params")
        defaults = cls()
        detectors = _read_tuple(data, "detectors", None, None)
        return cls(
            period=_read(data, "period", int, 11000),
            target_set=_read(data, "target_set", int, 21),
            start_time=_read(data, "start_time", int, 2_000_000),
            num_symbols=Counts.from_dict(
                data.get("num_symbols", {"quick": 48, "full": 192})
            ),
            prober=CoRunnerSpec.from_dict(data.get("prober", defaults.prober.to_dict())),
            detectors=(
                defaults.detectors
                if detectors is None
                else tuple(DetectorSpec.from_dict(d) for d in detectors)
            ),
            suspects=_read_tuple(data, "suspects", str, ("benign", "wb", "lru")),
            threshold_sigmas=_read(data, "threshold_sigmas", float, 3.0),
            calibration_seed_offset=_read(data, "calibration_seed_offset", int, 7919),
            roc_points=_read(data, "roc_points", int, 13),
        )


@dataclass(frozen=True)
class DefenseEvalParams:
    """Section 8 defense evaluation over a seed range."""

    num_seeds: Counts = field(default_factory=lambda: Counts(2, 6))
    #: ``None`` = every registered defense; else a subset by name.
    defenses: Optional[Tuple[str, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_seeds": self.num_seeds.to_dict(),
            "defenses": None if self.defenses is None else list(self.defenses),
        }

    @classmethod
    def from_dict(cls, data) -> "DefenseEvalParams":
        _check_fields(cls, data, "defense_eval params")
        return cls(
            num_seeds=Counts.from_dict(data.get("num_seeds", {"quick": 2, "full": 6})),
            defenses=_read_tuple(data, "defenses", str, None),
        )


@dataclass(frozen=True)
class CrossCoreParams:
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
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if not self.detectors:
            raise ConfigurationError(
                "cross_core_wb needs at least one detector for the stealth check"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "period": self.period,
            "messages": self.messages.to_dict(),
            "message_bits": self.message_bits.to_dict(),
            "calibration_repetitions": self.calibration_repetitions.to_dict(),
            "seed_stride": self.seed_stride,
            "detectors": [d.to_dict() for d in self.detectors],
            "threshold_sigmas": self.threshold_sigmas,
            "calibration_seed_offset": self.calibration_seed_offset,
            "benign_periods": self.benign_periods.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "CrossCoreParams":
        _check_fields(cls, data, "cross_core_wb params")
        defaults = cls()
        detectors = _read_tuple(data, "detectors", None, None)
        return cls(
            period=_read(data, "period", int, 9000),
            messages=Counts.from_dict(data.get("messages", {"quick": 1, "full": 3})),
            message_bits=Counts.from_dict(
                data.get("message_bits", {"quick": 24, "full": 64})
            ),
            calibration_repetitions=Counts.from_dict(
                data.get("calibration_repetitions", {"quick": 12, "full": 30})
            ),
            seed_stride=_read(data, "seed_stride", int, 101),
            detectors=(
                defaults.detectors
                if detectors is None
                else tuple(DetectorSpec.from_dict(d) for d in detectors)
            ),
            threshold_sigmas=_read(data, "threshold_sigmas", float, 3.0),
            calibration_seed_offset=_read(data, "calibration_seed_offset", int, 7919),
            benign_periods=Counts.from_dict(
                data.get("benign_periods", {"quick": 48, "full": 160})
            ),
        )


@dataclass(frozen=True)
class ClosedLoopParams:
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
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if not self.detectors:
            raise ConfigurationError(
                "closed_loop_defense needs at least one detector"
            )
        for suspect in self.suspects:
            if suspect not in ("benign", "wb", "lru"):
                raise ConfigurationError(
                    f"unknown suspect {suspect!r}; valid: benign, wb, lru"
                )
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
        if self.replacement_set_size <= 0:
            raise ConfigurationError(
                f"replacement_set_size must be positive, "
                f"got {self.replacement_set_size}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "period": self.period,
            "target_set": self.target_set,
            "start_time": self.start_time,
            "num_symbols": self.num_symbols.to_dict(),
            "replacement_set_size": self.replacement_set_size,
            "receiver_phase": self.receiver_phase,
            "detectors": [d.to_dict() for d in self.detectors],
            "suspects": list(self.suspects),
            "threshold_sigmas": self.threshold_sigmas,
            "calibration_seed_offset": self.calibration_seed_offset,
            "decoder_repetitions": self.decoder_repetitions.to_dict(),
            "fusion_k": self.fusion_k,
            "fusion_window": self.fusion_window,
            "fusion_min_hits": self.fusion_min_hits,
            "fusion_warmup": self.fusion_warmup,
            "defense": self.defense,
        }

    @classmethod
    def from_dict(cls, data) -> "ClosedLoopParams":
        _check_fields(cls, data, "closed_loop_defense params")
        defaults = cls()
        detectors = _read_tuple(data, "detectors", None, None)
        return cls(
            period=_read(data, "period", int, 11000),
            target_set=_read(data, "target_set", int, 21),
            start_time=_read(data, "start_time", int, 2_000_000),
            num_symbols=Counts.from_dict(
                data.get("num_symbols", {"quick": 48, "full": 192})
            ),
            replacement_set_size=_read(data, "replacement_set_size", int, 10),
            receiver_phase=_read(data, "receiver_phase", float, 0.5),
            detectors=(
                defaults.detectors
                if detectors is None
                else tuple(DetectorSpec.from_dict(d) for d in detectors)
            ),
            suspects=_read_tuple(data, "suspects", str, ("wb", "lru")),
            threshold_sigmas=_read(data, "threshold_sigmas", float, 3.0),
            calibration_seed_offset=_read(data, "calibration_seed_offset", int, 7919),
            decoder_repetitions=Counts.from_dict(
                data.get("decoder_repetitions", {"quick": 12, "full": 30})
            ),
            fusion_k=_read(data, "fusion_k", int, 2),
            fusion_window=_read(data, "fusion_window", int, 300),
            fusion_min_hits=_read(data, "fusion_min_hits", int, 1),
            fusion_warmup=_read(data, "fusion_warmup", int, 40),
            defense=_read(data, "defense", str, "write_through"),
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
class ScenarioSpec:
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
        """Check parts that only fail on construction of live objects."""
        self.channel.codec.build()
        if self.hierarchy is not None:
            self.hierarchy.validate()

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "description": self.description,
            "hierarchy": None if self.hierarchy is None else self.hierarchy.to_dict(),
            "channel": self.channel.to_dict(),
            "params": self.params.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "ScenarioSpec":
        _check_fields(cls, data, "scenario")
        if "schema_version" not in data:
            raise ConfigurationError(
                "scenario spec is missing schema_version; refusing to guess"
            )
        kind = _read(data, "kind", str, "")
        params_type = _PARAMS_TYPES.get(kind)
        if params_type is None:
            raise ConfigurationError(
                f"unknown scenario kind {kind!r}; valid: {', '.join(SCENARIO_KINDS)}"
            )
        hierarchy = data.get("hierarchy")
        return cls(
            name=_read(data, "name", str, ""),
            kind=kind,
            params=params_type.from_dict(data.get("params", {})),
            channel=ChannelSpec.from_dict(data.get("channel", {})),
            hierarchy=(
                None if hierarchy is None else HierarchyParams.from_dict(hierarchy)
            ),
            title=_read(data, "title", str, ""),
            paper_reference=_read(data, "paper_reference", str, ""),
            description=_read(data, "description", str, ""),
            schema_version=_read(data, "schema_version", int),
        )

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
