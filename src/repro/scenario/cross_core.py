"""Spec-driven cross-core WB channel runs (coherence layer, end to end).

Execution engine behind the ``cross_core_wb`` scenario kind: transmit
messages between two cores of a :class:`~repro.coherence.CoherentHierarchy`
over MESI downgrade write-backs, with the Section 7 online detectors
attached **per core** — re-asking the stealth question in the cross-core
setting.  Calibration mirrors :mod:`repro.scenario.detection`: detector
baselines are fit on a two-core benign co-run at a disjoint seed, then
armed detectors score the live channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.channels.wb.cross_core import (
    RECEIVER_TID,
    SENDER_TID,
    CrossCoreWBChannelConfig,
    run_cross_core_wb_channel,
)
from repro.experiments.profiles import RunProfile
from repro.scenario.spec import CrossCoreParams, DetectorSpec, ScenarioSpec
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.detectors import (
    Baseline,
    detection_rate,
    suggest_threshold,
)


@dataclass(frozen=True)
class CrossCoreMeasurement:
    """Everything the shaping layer needs from one cross-core run."""

    cores: int
    message_bits: int
    messages: int
    rate_kbps: float
    ber_values: Tuple[float, ...]
    mean_ber: float
    all_payloads_intact: bool
    #: Protocol counters summed over the payload transmissions.
    coherence: Dict[str, int]
    #: Per-core detector instances, e.g. ``monitor_core0``.
    detector_names: Tuple[str, ...]
    thresholds: Dict[str, float]
    #: Mean alarm rate of each detector over the transmissions.
    alarm_rates: Dict[str, float]
    #: True when no miss-rate monitor out-alarms the write-back burst
    #: detectors — the Section 7 conclusion, restated cross-core: the
    #: channel's miss footprint is not the productive tell, its
    #: coherence write-backs are.  ``None`` without both detector kinds.
    stealth_holds: Optional[bool]
    series: Dict[str, List[float]]


def _detector_grid(
    params: CrossCoreParams, cores: int
) -> List[Tuple[str, DetectorSpec, int, int]]:
    """The (name, spec, core, clock owner) product: one instance per
    detector per core, each watching ``core``'s cache events.

    The receiver's paced probes anchor the logical clock, like the
    prober does in the single-core scenarios; the receiver core's own
    detector is clocked by the sender instead (a detector cannot clock
    itself off the thread it watches).
    """
    return [
        (
            f"{spec.name}_core{core}",
            spec,
            core,
            RECEIVER_TID if core != RECEIVER_TID else SENDER_TID,
        )
        for spec in params.detectors
        for core in range(cores)
    ]


def _resolve_topology(scenario: ScenarioSpec):
    hierarchy = scenario.hierarchy
    if hierarchy is None or hierarchy.cores < 2:
        raise ConfigurationError(
            f"scenario {scenario.name!r}: cross_core_wb needs a hierarchy "
            "with cores >= 2 "
            f"(got {'default single-core' if hierarchy is None else hierarchy.cores})"
        )
    return hierarchy


def _run_benign_corun(
    scenario: ScenarioSpec,
    periods: int,
    seed: int,
    subscribers: Sequence[object],
) -> None:
    """Benign processes on both cores, events streamed to ``subscribers``."""
    from repro.experiments.process_models import (
        InstrumentedBenignProcess,
        make_activity,
    )

    params: CrossCoreParams = scenario.params
    hierarchy_params = _resolve_topology(scenario)
    bench = ChannelTestbench(
        TestbenchConfig(
            seed=seed,
            hierarchy_factory=lambda rng: hierarchy_params.build(rng=rng),
        )
    )
    hierarchy = bench.hierarchy
    bus = hierarchy.telemetry
    owned_bus = bus is None
    if owned_bus:
        bus = hierarchy.attach_telemetry(TelemetryBus())
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    try:
        for tid in (SENDER_TID, RECEIVER_TID):
            space = bench.new_space(pid=tid)
            program = InstrumentedBenignProcess(
                activity=make_activity(space, seed=seed + tid),
                periods=periods,
                period=params.period,
                start_time=scenario.channel.start_time,
            )
            bench.add_thread(tid, space, program, name=f"benign-core{tid}")
        bench.run()
    finally:
        for subscriber in subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()
            bus.unsubscribe(subscriber)
        if owned_bus:
            hierarchy.detach_telemetry()


def measure_cross_core(
    scenario: ScenarioSpec, profile: RunProfile, seed: int
) -> CrossCoreMeasurement:
    """Calibrate per-core detectors on benign, then transmit under watch."""
    params: CrossCoreParams = scenario.params
    hierarchy = _resolve_topology(scenario)
    cores = hierarchy.cores
    message_bits = params.message_bits.resolve(profile)
    messages = params.messages.resolve(profile)
    calibration_reps = params.calibration_repetitions.resolve(profile)
    grid = _detector_grid(params, cores)
    names = tuple(name for name, *_ in grid)

    # Phase 1 — fit baselines on a two-core benign co-run (disjoint seed).
    calibration = {
        name: spec.build(core, clock_owner)
        for name, spec, core, clock_owner in grid
    }
    _run_benign_corun(
        scenario,
        params.benign_periods.resolve(profile),
        seed + params.calibration_seed_offset,
        list(calibration.values()),
    )
    baselines = {
        name: Baseline.fit(detector.features)
        for name, detector in calibration.items()
    }
    thresholds = {
        name: suggest_threshold(
            baselines[name].score_all(detector.features),
            params.threshold_sigmas,
        )
        for name, detector in calibration.items()
    }

    # Phase 2 — transmit messages with armed detectors on every core.
    ber_values: List[float] = []
    all_intact = True
    rate_kbps = 0.0
    coherence_total: Dict[str, int] = {}
    alarm_sums = {name: 0.0 for name in names}
    series: Dict[str, List[float]] = {"ber": ber_values}
    for index in range(messages):
        config = CrossCoreWBChannelConfig(
            codec=scenario.channel.codec.build(),
            period_cycles=params.period,
            message_bits=message_bits,
            target_set=scenario.channel.target_set,
            receiver_phase=scenario.channel.receiver.phase,
            alignment_slack_symbols=scenario.channel.receiver.alignment_slack_symbols,
            start_time=scenario.channel.start_time,
            seed=seed * params.seed_stride + index,
            hierarchy=hierarchy,
            calibration_repetitions=calibration_reps,
        )
        detectors = {
            name: spec.build(core, clock_owner, baselines[name])
            for name, spec, core, clock_owner in grid
        }
        coherence: Dict[str, int] = {}
        result = run_cross_core_wb_channel(
            config,
            subscribers=list(detectors.values()),
            coherence_out=coherence,
        )
        ber_values.append(result.bit_error_rate)
        all_intact = all_intact and result.payload_intact
        rate_kbps = result.rate_kbps
        for key, value in coherence.items():
            coherence_total[key] = coherence_total.get(key, 0) + value
        for name, detector in detectors.items():
            alarm_sums[name] += detection_rate(detector.scores, thresholds[name])
            if index == 0:
                series[f"scores_{name}"] = list(detector.scores)

    alarm_rates = {name: alarm_sums[name] / messages for name in names}
    miss_rates = [
        alarm_rates[name] for name, spec, *_ in grid if spec.kind == "miss_rate"
    ]
    burst_rates = [
        alarm_rates[name]
        for name, spec, *_ in grid
        if spec.kind == "writeback_burst"
    ]
    stealth_holds: Optional[bool] = None
    if miss_rates and burst_rates:
        stealth_holds = max(miss_rates) <= max(burst_rates)

    return CrossCoreMeasurement(
        cores=cores,
        message_bits=message_bits,
        messages=messages,
        rate_kbps=rate_kbps,
        ber_values=tuple(ber_values),
        mean_ber=sum(ber_values) / len(ber_values) if ber_values else 0.0,
        all_payloads_intact=all_intact,
        coherence=coherence_total,
        detector_names=names,
        thresholds=thresholds,
        alarm_rates=alarm_rates,
        stealth_holds=stealth_holds,
        series=series,
    )
