"""Compile a :class:`~repro.scenario.spec.ScenarioSpec` into runnable form.

:func:`compile_scenario` resolves a spec against a
:class:`~repro.experiments.profiles.RunProfile` and seed and returns a
:class:`CompiledScenario` whose :meth:`~CompiledScenario.measure` executes
the scenario and returns a kind-specific measurement object.

Bit-identity contract
---------------------
The compiled runners replicate the historic experiment bodies' call
sequences *exactly* — same loop nesting, same derived seeds
(``seed * stride + index``), same decoder sharing — so the experiments
rebased onto this module produce byte-identical ``ExperimentResult`` JSON
(proved by the golden tests in ``tests/test_scenario_golden.py``).  When
changing a runner here, check those goldens before trusting the diff.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.units import cycles_to_kbps
from repro.experiments.profiles import ProfileLike, RunProfile, resolve_profile
from repro.telemetry.net import publish_ambient
from repro.scenario.spec import (
    BerSweepParams,
    ChannelSpec,
    DefenseEvalParams,
    FaultSweepParams,
    LevelCompareParams,
    OnlineDetectionParams,
    ScenarioSpec,
    TraceParams,
)


def _hierarchy_factory(spec: ScenarioSpec):
    """Factory for a custom hierarchy, or ``None`` for the default Xeon.

    Returning ``None`` keeps the testbench on its historic
    ``make_xeon_hierarchy`` path — bit-identical RNG consumption — while
    custom topologies ride the existing ``hierarchy_factory`` hook.
    """
    params = spec.hierarchy
    if params is None:
        return None
    return lambda rng: params.build(rng=rng)


def _wb_config(
    channel: ChannelSpec,
    codec,
    *,
    period_cycles: int,
    message_bits: int,
    seed: int,
    decoder=None,
    calibration_repetitions: int = 60,
    faults=None,
    hierarchy_factory=None,
):
    """A ``WBChannelConfig`` for one run of a spec-described channel."""
    from repro.channels.wb import WBChannelConfig

    return WBChannelConfig(
        codec=codec,
        period_cycles=period_cycles,
        message_bits=message_bits,
        target_set=channel.target_set,
        replacement_set_size=channel.replacement_set_size,
        receiver_phase=channel.receiver.phase,
        alignment_slack_symbols=channel.receiver.alignment_slack_symbols,
        start_time=channel.start_time,
        seed=seed,
        hierarchy_factory=hierarchy_factory,
        sender_ensure_resident=channel.sender.ensure_resident,
        calibration_repetitions=calibration_repetitions,
        decoder=decoder,
        faults=faults,
    )


# ----------------------------------------------------------------------
# Measurement shapes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BerCurve:
    """Mean BER per period for one codec; ``d`` is None for non-binary."""

    d: Optional[int]
    curve: Dict[int, float]


@dataclass(frozen=True)
class BerSweepMeasurement:
    periods: Tuple[int, ...]
    d_values: Optional[Tuple[int, ...]]
    messages: int
    message_bits: int
    bits_per_symbol: int
    curves: Tuple[BerCurve, ...]


@dataclass(frozen=True)
class LevelPoint:
    """One (cache level, period) leg of a level-comparison run."""

    level: str
    period_cycles: int
    rate_kbps: float
    ber: float


@dataclass(frozen=True)
class LevelCompareMeasurement:
    messages: int
    message_bits: int
    points: Tuple[LevelPoint, ...]


@dataclass(frozen=True)
class FaultPoint:
    """Raw vs hardened protocol behaviour at one fault intensity."""

    intensity: float
    raw_ber: float
    intact_count: int
    runs: int
    mean_rounds: float
    mean_retransmissions: float
    mean_goodput_kbps: float
    rate_kbps: float


@dataclass(frozen=True)
class FaultSweepMeasurement:
    intensities: Tuple[float, ...]
    runs_per_point: int
    points: Tuple[FaultPoint, ...]
    demonstration: Optional[Dict[str, object]]


@dataclass(frozen=True)
class DefenseEvalMeasurement:
    seeds: Tuple[int, ...]
    reports: Tuple[object, ...]


# ----------------------------------------------------------------------
# Kind runners
# ----------------------------------------------------------------------

def _measure_wb_ber_sweep(
    spec: ScenarioSpec, profile: RunProfile, seed: int
) -> BerSweepMeasurement:
    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import calibrate_decoder, run_wb_channel

    params: BerSweepParams = spec.params
    channel = spec.channel
    factory = _hierarchy_factory(spec)
    messages = params.messages.resolve(profile)
    message_bits = params.message_bits.resolve(profile)
    calibration = params.calibration_repetitions.resolve(profile)

    if params.d_values is not None:
        d_values: Optional[Tuple[int, ...]] = tuple(
            int(d) for d in params.d_values.resolve(profile)
        )
        codecs = [(d, BinaryDirtyCodec(d_on=d)) for d in d_values]
    else:
        d_values = None
        codecs = [(None, channel.codec.build())]

    curves: List[BerCurve] = []
    for label, codec in codecs:
        decoder = calibrate_decoder(
            codec.levels,
            repetitions=calibration,
            replacement_set_size=channel.replacement_set_size,
            target_set=channel.target_set,
            seed=seed,
            hierarchy_factory=factory,
            ensure_resident=channel.sender.ensure_resident,
        )
        curve: Dict[int, float] = {}
        for period in params.periods:
            publish_ambient(
                "progress",
                {"stage": "sweep_point", "d": label, "period": period},
            )
            bers = [
                run_wb_channel(
                    _wb_config(
                        channel,
                        codec,
                        period_cycles=period,
                        message_bits=message_bits,
                        seed=seed * params.seed_stride + message,
                        decoder=decoder,
                        calibration_repetitions=calibration,
                        hierarchy_factory=factory,
                    )
                ).bit_error_rate
                for message in range(messages)
            ]
            curve[period] = statistics.fmean(bers)
        curves.append(BerCurve(d=label, curve=curve))

    return BerSweepMeasurement(
        periods=params.periods,
        d_values=d_values,
        messages=messages,
        message_bits=message_bits,
        bits_per_symbol=codecs[0][1].bits_per_symbol,
        curves=tuple(curves),
    )


def _measure_wb_trace(spec: ScenarioSpec, profile: RunProfile, seed: int):
    from repro.channels.wb import run_wb_channel

    params: TraceParams = spec.params
    config = _wb_config(
        spec.channel,
        spec.channel.codec.build(),
        period_cycles=params.period,
        message_bits=params.message_bits.resolve(profile),
        seed=seed,
        calibration_repetitions=params.calibration_repetitions.resolve(profile),
        hierarchy_factory=_hierarchy_factory(spec),
    )
    return run_wb_channel(config)


def _measure_wb_level_compare(
    spec: ScenarioSpec, profile: RunProfile, seed: int
) -> LevelCompareMeasurement:
    from repro.channels.wb import calibrate_decoder, run_wb_channel
    from repro.channels.wb.l2 import L2WBChannelConfig, run_l2_wb_channel

    params: LevelCompareParams = spec.params
    channel = spec.channel
    codec = channel.codec.build()
    messages = params.messages.resolve(profile)
    message_bits = params.message_bits.resolve(profile)

    points: List[LevelPoint] = []

    l1_decoder = calibrate_decoder(
        codec.levels, repetitions=params.l1_calibration_repetitions, seed=seed
    )
    for period in params.l1_periods:
        bers = [
            run_wb_channel(
                _wb_config(
                    channel,
                    codec,
                    period_cycles=period,
                    message_bits=message_bits,
                    seed=seed * params.seed_stride + m,
                    decoder=l1_decoder,
                )
            ).bit_error_rate
            for m in range(messages)
        ]
        points.append(
            LevelPoint(
                level="L1",
                period_cycles=period,
                rate_kbps=cycles_to_kbps(period, codec.bits_per_symbol),
                ber=statistics.fmean(bers),
            )
        )

    # The L2 legs reuse the decoder calibrated on the first leg's first
    # run — including *across periods*, exactly as the historic
    # experiment did (the 44000-cycle leg decodes with the 22000-cycle
    # calibration, which is fine: thresholds depend on latency bands,
    # not the period).
    l2_decoder = None
    for period in params.l2_periods:
        first = run_l2_wb_channel(
            L2WBChannelConfig(
                codec=codec,
                period_cycles=period,
                message_bits=message_bits,
                seed=seed,
                decoder=l2_decoder,
            )
        )
        l2_decoder = first.decoder
        bers = [first.bit_error_rate] + [
            run_l2_wb_channel(
                L2WBChannelConfig(
                    codec=codec,
                    period_cycles=period,
                    message_bits=message_bits,
                    seed=seed * params.seed_stride + m,
                    decoder=l2_decoder,
                )
            ).bit_error_rate
            for m in range(1, messages)
        ]
        points.append(
            LevelPoint(
                level="L2",
                period_cycles=period,
                rate_kbps=first.rate_kbps,
                ber=statistics.fmean(bers),
            )
        )

    return LevelCompareMeasurement(
        messages=messages, message_bits=message_bits, points=tuple(points)
    )


def _measure_wb_fault_sweep(
    spec: ScenarioSpec, profile: RunProfile, seed: int
) -> FaultSweepMeasurement:
    from repro.channels.wb import run_robust_wb_channel, run_wb_channel

    params: FaultSweepParams = spec.params
    channel = spec.channel
    intensities = tuple(float(i) for i in params.intensities.resolve(profile))
    runs_per_point = params.runs_per_point.resolve(profile)

    points: List[FaultPoint] = []
    demonstration: Optional[Dict[str, object]] = None
    for intensity in intensities:
        fault_spec = params.fault.scaled(intensity)
        raw_bers: List[float] = []
        intact_count = 0
        rounds: List[int] = []
        retransmissions: List[int] = []
        goodputs: List[float] = []
        rate_kbps = 0.0
        for index in range(runs_per_point):
            run_seed = seed * params.seed_stride + index
            raw_config = _wb_config(
                channel,
                channel.codec.build(),
                period_cycles=params.period,
                message_bits=params.raw_message_bits,
                seed=run_seed,
                faults=fault_spec if intensity else None,
                hierarchy_factory=_hierarchy_factory(spec),
            )
            raw = run_wb_channel(raw_config)
            raw_bers.append(raw.bit_error_rate)
            hardened = run_robust_wb_channel(
                replace(raw_config, message_bits=params.payload_bits)
            )
            intact_count += int(hardened.payload_intact)
            rounds.append(hardened.rounds_used)
            retransmissions.append(hardened.retransmissions)
            goodputs.append(hardened.goodput_kbps)
            rate_kbps = hardened.rate_kbps
        raw_ber = statistics.fmean(raw_bers)
        goodput = statistics.fmean(goodputs)
        all_intact = intact_count == runs_per_point
        points.append(
            FaultPoint(
                intensity=intensity,
                raw_ber=raw_ber,
                intact_count=intact_count,
                runs=runs_per_point,
                mean_rounds=statistics.fmean(rounds),
                mean_retransmissions=statistics.fmean(retransmissions),
                mean_goodput_kbps=goodput,
                rate_kbps=rate_kbps,
            )
        )
        if (
            demonstration is None
            and raw_ber > params.collapse_threshold
            and all_intact
        ):
            demonstration = {
                "intensity": intensity,
                "raw_ber": raw_ber,
                "payload_intact": True,
                "goodput_kbps": goodput,
                "rate_kbps": rate_kbps,
            }

    return FaultSweepMeasurement(
        intensities=intensities,
        runs_per_point=runs_per_point,
        points=tuple(points),
        demonstration=demonstration,
    )


def _measure_online_detection(spec: ScenarioSpec, profile: RunProfile, seed: int):
    from repro.scenario.detection import measure_online_detection

    return measure_online_detection(spec, profile, seed)


def _measure_cross_core_wb(spec: ScenarioSpec, profile: RunProfile, seed: int):
    from repro.scenario.cross_core import measure_cross_core

    return measure_cross_core(spec, profile, seed)


def _measure_closed_loop_defense(spec: ScenarioSpec, profile: RunProfile, seed: int):
    from repro.scenario.closed_loop import measure_closed_loop

    return measure_closed_loop(spec, profile, seed)


def _measure_defense_eval(
    spec: ScenarioSpec, profile: RunProfile, seed: int
) -> DefenseEvalMeasurement:
    """Reads only ``params``; ``validate()`` refuses any other
    ``hierarchy`` or ``channel`` than the defaults."""
    from repro.defenses.evaluation import evaluate_all, evaluate_defense

    params: DefenseEvalParams = spec.params
    seeds = range(seed, seed + params.num_seeds.resolve(profile))
    if params.defenses is None:
        reports = evaluate_all(seeds=seeds)
    else:
        names = sorted(set(params.defenses))
        reports = [evaluate_defense(name, seeds) for name in names]
    return DefenseEvalMeasurement(seeds=tuple(seeds), reports=tuple(reports))


_RUNNERS: Dict[str, Callable] = {
    "wb_ber_sweep": _measure_wb_ber_sweep,
    "wb_trace": _measure_wb_trace,
    "wb_level_compare": _measure_wb_level_compare,
    "wb_fault_sweep": _measure_wb_fault_sweep,
    "online_detection": _measure_online_detection,
    "defense_eval": _measure_defense_eval,
    "cross_core_wb": _measure_cross_core_wb,
    "closed_loop_defense": _measure_closed_loop_defense,
}


@dataclass(frozen=True)
class CompiledScenario:
    """A spec resolved against a profile and seed, ready to execute."""

    spec: ScenarioSpec
    profile: RunProfile
    seed: int

    def measure(self):
        """Execute the scenario; returns the kind-specific measurement."""
        runner = _RUNNERS[self.spec.kind]
        return runner(self.spec, self.profile, self.seed)


def compile_scenario(
    spec: ScenarioSpec, profile: ProfileLike = None, seed: int = 0
) -> CompiledScenario:
    """Resolve ``spec`` against ``profile``/``seed``.

    Validation that needs live objects (codec construction, replacement
    policy lookup) happens here, so malformed specs fail before any
    simulation work starts.
    """
    spec.validate()
    return CompiledScenario(spec=spec, profile=resolve_profile(profile), seed=seed)
