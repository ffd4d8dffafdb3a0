"""Spec-driven online-detection runs (the Section 7 stealth claim, live).

This is the execution engine behind the ``online_detection`` scenario
kind: co-run one suspect (WB sender / LRU sender / benign process) with a
periodic set prober, stream cache events to the configured detectors,
calibrate on a benign run at a disjoint seed, then score every suspect at
the measurement seed.  The historic
:mod:`repro.experiments.online_detection` module delegates here; its
constants became the library spec's defaults
(:func:`repro.scenario.library.online_detection_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bits import random_bits
from repro.common.rng import derive_rng, ensure_rng
from repro.channels.encoding import BinaryDirtyCodec
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.cpu.ops import Load, SpinUntil
from repro.cpu.thread import OpGenerator, Program
from repro.experiments.profiles import RunProfile
from repro.experiments.process_models import (
    InstrumentedBenignProcess,
    InstrumentedLRUSender,
    InstrumentedWBSender,
    make_activity,
)
from repro.mem.sets import build_set_conflicting_lines
from repro.scenario.spec import OnlineDetectionParams, ScenarioSpec
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.detectors import (
    Baseline,
    detection_rate,
    suggest_threshold,
    threshold_sweep,
)

SUSPECT_TID = 0
PROBER_TID = 1


@dataclass
class PeriodicProber(Program):
    """Sweeps the target set at a fixed cycle cadence, start to finish.

    The cadence serves two detector needs at once: it contends the
    monitored set (so channel state changes surface as conflict events
    attributed to the suspect's victim lines) and, because it is paced
    in *cycles*, it anchors the logical-access clock to wall time.
    """

    lines: Sequence[int]
    interval: int
    end_time: int

    def run(self) -> OpGenerator:
        t = 0
        while t < self.end_time:
            for line in self.lines:
                yield Load(line)
            t = yield SpinUntil(t + self.interval)


@dataclass(frozen=True)
class OnlineDetectionMeasurement:
    """Everything the shaping layer needs from one detection run."""

    num_symbols: int
    detector_names: Tuple[str, ...]
    suspects: Tuple[str, ...]
    thresholds: Dict[str, float]
    rates: Dict[str, Dict[str, float]]
    series: Dict[str, List[float]]
    #: None when the suspect set lacks the wb/lru pair to compare.
    stealth_holds: Optional[bool]


def _run_corun(
    scenario: ScenarioSpec,
    channel: str,
    num_symbols: int,
    seed: int,
    subscribers: Sequence[object],
) -> None:
    """One co-run: suspect (wb/lru/benign) + prober, events to subscribers."""
    params: OnlineDetectionParams = scenario.params
    hierarchy_params = scenario.hierarchy
    factory = (
        None
        if hierarchy_params is None
        else (lambda rng: hierarchy_params.build(rng=rng))
    )
    bench = ChannelTestbench(
        TestbenchConfig(seed=seed, hierarchy_factory=factory)
    )
    hierarchy = bench.hierarchy
    bus = hierarchy.telemetry
    owned_bus = bus is None
    if owned_bus:
        bus = hierarchy.attach_telemetry(TelemetryBus())
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    try:
        rng = ensure_rng(seed)
        message = random_bits(num_symbols, derive_rng(rng, "msg"))
        space = bench.new_space(pid=SUSPECT_TID)
        activity = make_activity(space, seed=seed)
        lines = build_set_conflicting_lines(
            space, bench.l1_layout, params.target_set, 1
        )
        if channel == "wb":
            suspect: Program = InstrumentedWBSender(
                activity=activity,
                lines=lines,
                schedule=BinaryDirtyCodec(d_on=1).encode_message(message),
                period=params.period,
                start_time=params.start_time,
            )
        elif channel == "lru":
            suspect = InstrumentedLRUSender(
                activity=activity,
                line=lines[0],
                message=message,
                period=params.period,
                start_time=params.start_time,
            )
        elif channel == "benign":
            suspect = InstrumentedBenignProcess(
                activity=activity,
                periods=num_symbols,
                period=params.period,
                start_time=params.start_time,
            )
        else:
            raise ValueError(f"unknown channel {channel!r}")
        prober_space = bench.new_space(pid=PROBER_TID)
        prober_lines = build_set_conflicting_lines(
            prober_space, bench.l1_layout, params.target_set, params.prober.lines
        )
        prober = PeriodicProber(
            lines=prober_lines,
            interval=params.period // params.prober.sweeps_per_period,
            end_time=params.start_time + num_symbols * params.period,
        )
        bench.add_thread(SUSPECT_TID, space, suspect, name=f"{channel}-suspect")
        bench.add_thread(PROBER_TID, prober_space, prober, name="prober")
        bench.run()
    finally:
        for subscriber in subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()
            bus.unsubscribe(subscriber)
        if owned_bus:
            hierarchy.detach_telemetry()


def _sweep_thresholds(all_scores: List[float], points: int) -> List[float]:
    top = max(all_scores) if all_scores else 1.0
    if top <= 0.0:
        top = 1.0
    return [top * index / (points - 1) for index in range(points)]


def measure_online_detection(
    scenario: ScenarioSpec, profile: RunProfile, seed: int
) -> OnlineDetectionMeasurement:
    """Calibrate on benign, score every suspect, sweep ROC thresholds."""
    params: OnlineDetectionParams = scenario.params
    num_symbols = params.num_symbols.resolve(profile)
    names = tuple(spec.name for spec in params.detectors)

    # Phase 1 — calibrate the detectors on a benign run (disjoint seed).
    calibration = {
        spec.name: spec.build(SUSPECT_TID, PROBER_TID)
        for spec in params.detectors
    }
    _run_corun(
        scenario,
        "benign",
        num_symbols,
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

    # Phase 2 — score every suspect at the measurement seed.
    scores: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    for suspect in params.suspects:
        detectors = {
            spec.name: spec.build(SUSPECT_TID, PROBER_TID, baselines[spec.name])
            for spec in params.detectors
        }
        _run_corun(scenario, suspect, num_symbols, seed, list(detectors.values()))
        for name, detector in detectors.items():
            scores[name][suspect] = detector.scores

    rates: Dict[str, Dict[str, float]] = {}
    series: Dict[str, List[float]] = {}
    for name in names:
        threshold = thresholds[name]
        rates[name] = {
            suspect: detection_rate(scores[name][suspect], threshold)
            for suspect in params.suspects
        }
        benign_scores = scores[name].get("benign", [])
        channel_scores = {
            suspect: scores[name][suspect]
            for suspect in params.suspects
            if suspect != "benign"
        }
        sweep = threshold_sweep(
            _sweep_thresholds(
                [s for suspect in scores[name].values() for s in suspect],
                params.roc_points,
            ),
            benign_scores,
            channel_scores,
        )
        series[f"{name}_roc_threshold"] = [r["threshold"] for r in sweep]
        series[f"{name}_roc_benign_fpr"] = [r["benign_fpr"] for r in sweep]
        for suspect in channel_scores:
            series[f"{name}_roc_{suspect}"] = [r[suspect] for r in sweep]
        for suspect in params.suspects:
            series[f"{name}_scores_{suspect}"] = list(scores[name][suspect])

    stealth_holds: Optional[bool] = None
    if {"wb", "lru"} <= set(params.suspects):
        stealth_holds = all(
            rates[name]["lru"] > rates[name]["wb"] for name in names
        )
    return OnlineDetectionMeasurement(
        num_symbols=num_symbols,
        detector_names=names,
        suspects=params.suspects,
        thresholds=thresholds,
        rates=rates,
        series=series,
        stealth_holds=stealth_holds,
    )
