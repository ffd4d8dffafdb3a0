"""Spec-driven closed-loop defense runs (detect → fuse → respond, live).

This is the execution engine behind the ``closed_loop_defense`` scenario
kind — the interactive form of the Section 7 stealth claim.  One co-run
per suspect:

* the suspect modulates the dirty-state channel on ``target_set`` —
  either the paper's WB discipline (one store per 1-symbol) or the LRU
  channel's continuous-modulation discipline (re-assert the symbol every
  ``modulation_interval`` cycles) driving the same dirty-state medium;
* a receiver thread decodes it with one replacement-set chase per
  period (:class:`~repro.channels.wb.receiver.WBReceiverProgram`), and
  doubles as the detectors' pacing clock — its ``replacement_set_size``
  loads per period advance the logical-access clock, so a detector
  window of ``replacement_set_size`` closes once per period;
* the configured detectors stream z-scores, the instant each window
  closes, into a :class:`~repro.orchestration.aggregator.FleetAggregator`
  (k-of-n fused decision), and on the fused alarm a
  :class:`~repro.orchestration.responder.DefenseResponder` flips the
  live hierarchy to the configured defense at that event boundary;
* channel capacity and BER are measured before vs. after the flip by
  splitting the decoded symbol stream at the flip boundary.

A :class:`~repro.telemetry.net.StreamPublisher` rides along on every
measurement co-run: cache events, detector scores, the fused alarm and
the defense flip all become id-stamped frames, so the run is observable
live over the service's SSE endpoints — and because ids are assigned in
publish order from the single engine thread, the final ``last_event_id``
and the flip frame's id are part of the replayable result.

The expected asymmetry (the paper's Table 6/7 story, closed-loop): the
continuously-modulating suspect trips the fused alarm and loses the
channel — post-flip capacity collapses — while the WB suspect completes
its whole payload without the fused alarm ever firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.capacity import bit_sequences_capacity
from repro.common.bits import random_bits
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, derive_seed, ensure_rng
from repro.channels.encoding import BinaryDirtyCodec
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.channels.threshold import ThresholdDecoder
from repro.channels.wb.receiver import WBReceiverProgram
from repro.cpu.ops import Load, ResetStats, SpinUntil, Store
from repro.cpu.thread import OpGenerator, Program
from repro.experiments.profiles import RunProfile
from repro.experiments.process_models import (
    InstrumentedBenignProcess,
    InstrumentedWBSender,
    make_activity,
)
from repro.mem.pointer_chase import PointerChaseList
from repro.mem.sets import build_replacement_set, build_set_conflicting_lines
from repro.orchestration.aggregator import FleetAggregator
from repro.orchestration.responder import DefenseResponder
from repro.scenario.spec import ClosedLoopParams, ScenarioSpec
from repro.telemetry.bus import subscribed
from repro.telemetry.detectors import (
    Baseline,
    suggest_threshold,
)
from repro.telemetry.net import (
    StreamPublisher,
    active_publisher,
    publish_ambient,
)

SUSPECT_TID = 0
RECEIVER_TID = 1


@dataclass
class ModulatingDirtySender(Program):
    """The LRU channel's sender discipline on the dirty-state medium.

    "The LRU channel requires the sender to constantly modulate the
    transmitted bit within the encoding time Ts" — here the re-assertion
    is a *store* of the conflict line every ``modulation_interval``
    cycles, so the same dirty-state receiver decodes it.  Two deliberate
    departures from :class:`~repro.experiments.process_models
    .InstrumentedLRUSender` keep the decode grid intact:

    * **absolute pacing** — every wait targets
      ``start_time + index*period + offset``, so housekeeping overrun
      in a 1-period cannot drift the symbol grid away from the
      receiver's sampling grid;
    * **duty-cycled modulation** — re-assertion stops at ``duty`` of the
      period (the receiver's probe slot), so a 1-symbol's trailing
      stores cannot re-dirty the line after the probe and bleed into
      the next symbol's decode.

    The *detector-visible* signature is the point: hundreds of extra
    suspect-attributed accesses per 1-period plus a periodic writeback
    train, versus the WB sender's single store per 1-symbol.
    """

    activity: object
    line: int
    message: Sequence[int]
    period: int
    start_time: int
    duty: float = 0.5
    modulation_interval: int = 30

    def __post_init__(self) -> None:
        if self.modulation_interval <= 0:
            raise ConfigurationError("modulation_interval must be positive")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigurationError(f"duty must be in (0, 1], got {self.duty}")

    def run(self) -> OpGenerator:
        yield Load(self.line)
        yield from self.activity.warmup()
        yield SpinUntil(self.start_time)
        yield ResetStats()
        steps = max(1, int(self.period * self.duty) // self.modulation_interval)
        for index, bit in enumerate(self.message):
            origin = self.start_time + index * self.period
            yield from self.activity.housekeeping()
            if bit:
                for step in range(1, steps + 1):
                    yield Store(self.line)
                    yield SpinUntil(origin + step * self.modulation_interval)
            yield SpinUntil(origin + self.period)


@dataclass(frozen=True)
class PhaseStats:
    """Channel quality over one phase (pre- or post-flip) of a run."""

    symbols: int
    errors: int
    ber: float
    capacity: float


@dataclass(frozen=True)
class SuspectOutcome:
    """One suspect's trip through the closed loop."""

    suspect: str
    #: Fusing clock reading, or ``None`` when the alarm never fired.
    alarm_time: Optional[int]
    alarm_sources: Tuple[str, ...]
    flip_time: Optional[int]
    #: Stream event id of the ``flip`` frame (pins the boundary on the wire).
    flip_event_id: Optional[int]
    #: Symbol index straddling the flip (dropped from both phases).
    boundary_symbol: Optional[int]
    pre: Optional[PhaseStats]
    post: Optional[PhaseStats]
    #: Whether the whole payload decoded error-free end to end.
    payload_intact: bool
    #: Final stream cursor — with ids assigned in publish order from the
    #: single engine thread, this is part of the replayable result.
    stream_events: int
    stream_dropped: int


@dataclass(frozen=True)
class ClosedLoopMeasurement:
    """Everything the shaping layer needs from one closed-loop run."""

    num_symbols: int
    detector_names: Tuple[str, ...]
    suspects: Tuple[str, ...]
    thresholds: Dict[str, float]
    defense: str
    fusion_rule: str
    outcomes: Dict[str, SuspectOutcome]
    series: Dict[str, List[float]]
    #: None when the suspect set lacks the wb/lru pair to compare.
    asymmetry_holds: Optional[bool]


@dataclass
class _CorunResult:
    receiver: WBReceiverProgram
    message: List[int]
    publisher: Optional[StreamPublisher]
    aggregator: Optional[FleetAggregator]
    responder: Optional[DefenseResponder]


def _run_corun(
    scenario: ScenarioSpec,
    suspect_kind: str,
    num_symbols: int,
    seed: int,
    detectors: Dict[str, object],
    thresholds: Optional[Dict[str, float]] = None,
    stream_hook: Optional[Callable[[str, StreamPublisher], None]] = None,
    message_override: Optional[List[int]] = None,
) -> _CorunResult:
    """One co-run: suspect + decoding receiver, detectors live on the bus.

    With ``thresholds`` given (the measurement phase) the full loop is
    wired: a fresh :class:`StreamPublisher` joins the bus, each
    detector's ``score_sink`` feeds a :class:`FleetAggregator` source,
    and an armed :class:`DefenseResponder` listens for the fused alarm.
    Calibration co-runs pass ``thresholds=None`` and run open-loop.
    """
    params: ClosedLoopParams = scenario.params
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

    publisher: Optional[StreamPublisher] = None
    aggregator: Optional[FleetAggregator] = None
    responder: Optional[DefenseResponder] = None
    subscribers: List[object] = []
    if thresholds is not None:
        publisher = StreamPublisher(mirror=active_publisher())
        aggregator = FleetAggregator(
            k=params.fusion_k,
            window=params.fusion_window,
            min_hits=params.fusion_min_hits,
            warmup=params.fusion_warmup,
            publisher=publisher,
            source_label=suspect_kind,
        )
        for name, detector in detectors.items():
            aggregator.register_source(name, thresholds[name])
            detector.score_sink = aggregator.sink(name)
        responder = DefenseResponder(
            hierarchy,
            defense=params.defense,
            publisher=publisher,
            source_label=suspect_kind,
        ).arm()
        aggregator.on_alarm.append(responder.on_alarm)
        # Publisher first: the cache_event frame precedes any score /
        # alarm / flip frame the same access triggers in the detectors.
        subscribers.append(publisher)
        if stream_hook is not None:
            stream_hook(suspect_kind, publisher)
    subscribers.extend(detectors.values())

    with subscribed(hierarchy, subscribers):
        rng = ensure_rng(seed)
        message = random_bits(num_symbols, derive_rng(rng, "msg"))
        if message_override is not None:
            message = list(message_override)
        space = bench.new_space(pid=SUSPECT_TID)
        activity = make_activity(space, seed=seed)
        lines = build_set_conflicting_lines(
            space, bench.l1_layout, params.target_set, 1
        )
        if suspect_kind == "wb":
            suspect: Program = InstrumentedWBSender(
                activity=activity,
                lines=lines,
                schedule=BinaryDirtyCodec(d_on=1).encode_message(message),
                period=params.period,
                start_time=params.start_time,
            )
        elif suspect_kind == "lru":
            suspect = ModulatingDirtySender(
                activity=activity,
                line=lines[0],
                message=message,
                period=params.period,
                start_time=params.start_time,
                duty=params.receiver_phase,
            )
        elif suspect_kind == "benign":
            suspect = InstrumentedBenignProcess(
                activity=activity,
                periods=num_symbols,
                period=params.period,
                start_time=params.start_time,
            )
        else:
            raise ValueError(f"unknown suspect {suspect_kind!r}")

        receiver_space = bench.new_space(pid=RECEIVER_TID)
        set_rng = derive_rng(bench.rng, "replacement-sets")
        layout = bench.l1_layout
        chase_a = PointerChaseList.from_lines(
            build_replacement_set(
                receiver_space,
                layout,
                params.target_set,
                params.replacement_set_size,
                set_rng,
            ),
            rng=set_rng,
        )
        chase_b = PointerChaseList.from_lines(
            build_replacement_set(
                receiver_space,
                layout,
                params.target_set,
                params.replacement_set_size,
                set_rng,
            ),
            rng=set_rng,
        )
        receiver = WBReceiverProgram(
            chase_a=chase_a,
            chase_b=chase_b,
            period=params.period,
            start_time=params.start_time,
            num_samples=num_symbols,
            phase=params.receiver_phase,
        )
        bench.add_thread(
            SUSPECT_TID, space, suspect, name=f"{suspect_kind}-suspect"
        )
        bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="receiver")
        bench.run()
    return _CorunResult(
        receiver=receiver,
        message=message,
        publisher=publisher,
        aggregator=aggregator,
        responder=responder,
    )


def _phase_stats(
    sent: Sequence[int], received: Sequence[int]
) -> Optional[PhaseStats]:
    if not sent:
        return None
    errors = sum(1 for s, r in zip(sent, received) if s != r)
    return PhaseStats(
        symbols=len(sent),
        errors=errors,
        ber=errors / len(sent),
        capacity=bit_sequences_capacity(list(sent), list(received)),
    )


def measure_closed_loop(
    scenario: ScenarioSpec,
    profile: RunProfile,
    seed: int,
    stream_hook: Optional[Callable[[str, StreamPublisher], None]] = None,
) -> ClosedLoopMeasurement:
    """Calibrate, then run the full detect→fuse→respond loop per suspect.

    ``stream_hook`` is called with ``(suspect, publisher)`` right before
    each measurement co-run starts — tests use it to attach, drop and
    resume stream clients mid-run and assert they cannot perturb the
    result.
    """
    params: ClosedLoopParams = scenario.params
    num_symbols = params.num_symbols.resolve(profile)
    names = tuple(spec.name for spec in params.detectors)

    # Phase 0 — pilot co-run for the receiver's decoder.  An idle-bench
    # calibration (:func:`~repro.channels.wb.calibration
    # .calibrate_decoder`) mis-thresholds here: the suspect's
    # whole-process traffic shifts the clean chase baseline by several
    # cycles.  So the parties train on a *pilot sequence* instead —
    # the same co-run topology, a known alternating bit pattern, and a
    # derived seed disjoint from calibration and measurement — exactly
    # the training preamble a real covert-channel pair would send.
    codec = BinaryDirtyCodec(d_on=1)
    repetitions = params.decoder_repetitions.resolve(profile)
    pilot_bits = [0, 1] * repetitions
    pilot = _run_corun(
        scenario,
        "wb",
        len(pilot_bits),
        derive_seed(ensure_rng(seed), "closed-loop/pilot"),
        {},
        message_override=pilot_bits,
    )
    samples_by_level: Dict[int, List[float]] = {}
    for bit, latency in zip(pilot_bits, pilot.receiver.latencies()):
        level = codec.encode_symbol([bit])
        samples_by_level.setdefault(level, []).append(float(latency))
    decoder = ThresholdDecoder.calibrate(samples_by_level)

    # Phase 1 — calibrate the detectors on a benign co-run (disjoint seed).
    calibration = {
        spec.name: spec.build(SUSPECT_TID, RECEIVER_TID)
        for spec in params.detectors
    }
    _run_corun(
        scenario,
        "benign",
        num_symbols,
        seed + params.calibration_seed_offset,
        calibration,
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

    # Phase 2 — close the loop around every suspect at the measurement seed.
    outcomes: Dict[str, SuspectOutcome] = {}
    series: Dict[str, List[float]] = {}
    fusion_rule = (
        f"{params.fusion_k}-of-{len(names)} sources with >= "
        f"{params.fusion_min_hits} over-threshold scores within "
        f"{params.fusion_window}"
    )
    for suspect in params.suspects:
        publish_ambient(
            "progress", {"stage": "closed_loop_suspect", "suspect": suspect}
        )
        detectors = {
            spec.name: spec.build(SUSPECT_TID, RECEIVER_TID, baselines[spec.name])
            for spec in params.detectors
        }
        result = _run_corun(
            scenario,
            suspect,
            num_symbols,
            seed,
            detectors,
            thresholds=thresholds,
            stream_hook=stream_hook,
        )
        latencies = [float(value) for value in result.receiver.latencies()]
        decoded = codec.decode_message(decoder.classify_many(latencies))
        message = result.message

        aggregator = result.aggregator
        responder = result.responder
        alarm = aggregator.alarms[0] if aggregator.alarms else None
        flip_time = responder.flip_time
        boundary: Optional[int] = None
        if flip_time is None:
            pre = _phase_stats(message, decoded)
            post = None
        else:
            # The fusing clock reading c falls inside (or exactly at the
            # end of) symbol (c-1)//R's chase: that straddling symbol is
            # dropped, everything before it ran undefended, everything
            # after it ran defended.
            boundary = min(
                (flip_time - 1) // params.replacement_set_size,
                num_symbols - 1,
            )
            pre = _phase_stats(message[:boundary], decoded[:boundary])
            post = _phase_stats(message[boundary + 1 :], decoded[boundary + 1 :])
        snapshot = result.publisher.snapshot()
        outcomes[suspect] = SuspectOutcome(
            suspect=suspect,
            alarm_time=None if alarm is None else alarm.time,
            alarm_sources=() if alarm is None else alarm.sources,
            flip_time=flip_time,
            flip_event_id=responder.flip_event_id,
            boundary_symbol=boundary,
            pre=pre,
            post=post,
            payload_intact=decoded == list(message),
            stream_events=snapshot["last_event_id"],
            stream_dropped=snapshot["dropped_total"],
        )
        for name, detector in detectors.items():
            series[f"{name}_scores_{suspect}"] = list(detector.scores)
        series[f"latency_{suspect}"] = latencies

    asymmetry_holds: Optional[bool] = None
    if {"wb", "lru"} <= set(params.suspects):
        wb = outcomes["wb"]
        lru = outcomes["lru"]
        asymmetry_holds = (
            wb.alarm_time is None
            and wb.pre is not None
            and wb.pre.capacity > 0.0
            and lru.alarm_time is not None
            and lru.pre is not None
            and lru.post is not None
            and lru.pre.capacity > 0.0
            and lru.post.capacity * 10.0 <= lru.pre.capacity
        )
    return ClosedLoopMeasurement(
        num_symbols=num_symbols,
        detector_names=names,
        suspects=params.suspects,
        thresholds=thresholds,
        defense=params.defense,
        fusion_rule=fusion_rule,
        outcomes=outcomes,
        series=series,
        asymmetry_holds=asymmetry_holds,
    )
