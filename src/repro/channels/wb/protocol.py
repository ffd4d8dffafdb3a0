"""Algorithm 3 — the paced WB covert-channel protocol, end to end.

One :func:`run_wb_channel` call performs what the paper's evaluation does
for a single message: calibrate thresholds, launch the sender and receiver
as two hyper-threads, decode the receiver's latency trace, align on the
preamble and score the transmission with the Wagner-Fischer edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.channels.encoding import BinaryDirtyCodec, SymbolCodec
from repro.channels.results import ChannelFraming, ChannelRunResult, score_run
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.channels.threshold import ThresholdDecoder
from repro.cache.hierarchy import HierarchyFactory
from repro.channels.wb.calibration import calibrate_decoder
from repro.channels.wb.receiver import WBReceiverProgram
from repro.channels.wb.sender import WBSenderProgram
from repro.common.rng import derive_rng, derive_seed
from repro.cpu.perf_counters import PerfReport
from repro.cpu.tsc import TimestampCounterLike
from repro.faults.injector import (
    CORUNNER_TID,
    CoRunnerProgram,
    apply_measurement_faults,
    desched_plan,
    emit_fault_events,
)
from repro.faults.schedule import FaultSchedule, build_fault_schedule
from repro.faults.spec import FaultSpec
from repro.mem.pointer_chase import PointerChaseList
from repro.mem.sets import build_replacement_set, build_set_conflicting_lines

#: Hardware-thread ids used throughout (also the stats owner keys).
SENDER_TID = 0
RECEIVER_TID = 1


@dataclass
class WBChannelConfig(ChannelFraming):
    """Everything that defines one WB covert-channel run.

    The framing defaults (:class:`~repro.channels.results.ChannelFraming`)
    mirror the paper's baseline experiment; on top of them come binary
    encoding with ``d = 1``, a replacement set of ten lines, and
    ``Ts = Tr``.
    """

    codec: SymbolCodec = field(default_factory=BinaryDirtyCodec)
    target_set: Optional[int] = 21
    replacement_set_size: int = 10
    #: Fraction of the first period the receiver waits before its first
    #: measurement.  ``None`` (the default, and the realistic setting)
    #: draws the phase uniformly at random: the two processes agree on the
    #: period but have no way to agree on the phase, and measurements that
    #: straddle the sender's encode are the channel's dominant error source
    #: at high rates (Figure 6).
    receiver_phase: Optional[float] = None
    #: TSC model override (ablations disable read jitter through this).
    tsc: Optional[TimestampCounterLike] = None
    hierarchy_overrides: Dict[str, object] = field(default_factory=dict)
    #: Custom hierarchy builder (defense evaluations); see TestbenchConfig.
    hierarchy_factory: Optional[HierarchyFactory] = None
    #: Adaptive-sender mode against fill-decorrelating defenses.
    sender_ensure_resident: bool = False
    calibration_repetitions: int = 60
    #: Optional decoder reuse: experiments sweeping many messages on one
    #: platform calibrate once and inject the decoder here.
    decoder: Optional[ThresholdDecoder] = None
    #: Deterministic fault injection (``repro.faults``); ``None`` runs the
    #: benign regime every other experiment measures.  The fault schedule
    #: derives from ``derive_seed(seed, "faults/round<n>")`` — its own
    #: stream, so a faulted run's simulator randomness (hierarchy, noise,
    #: phase) is identical to the fault-free run at the same seed.
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.tsc is not None and not isinstance(self.tsc, TimestampCounterLike):
            raise ConfigurationError(
                f"tsc must implement TimestampCounterLike (read(), "
                f"read_overhead, read_jitter); got {type(self.tsc).__name__}"
            )
        if self.hierarchy_factory is not None and not callable(
            self.hierarchy_factory
        ):
            raise ConfigurationError(
                f"hierarchy_factory must be callable (rng -> CacheHierarchy); "
                f"got {type(self.hierarchy_factory).__name__}"
            )
        super().__post_init__()
        if self.calibration_repetitions <= 0:
            raise ConfigurationError(
                f"calibration_repetitions must be positive, "
                f"got {self.calibration_repetitions}"
            )
        if self.replacement_set_size <= 0:
            raise ConfigurationError(
                f"replacement_set_size must be positive, "
                f"got {self.replacement_set_size}"
            )

    @property
    def bits_per_symbol(self) -> int:
        """Message bits per symbol: the codec's."""
        return self.codec.bits_per_symbol


@dataclass(frozen=True)
class TransmissionTrace:
    """What one paced transmission measured, before symbol decoding.

    :func:`run_wb_channel` (the raw protocol) and
    :func:`repro.channels.wb.robust.run_robust_wb_channel` (the framed,
    self-healing stack) both transmit through
    :func:`transmit_symbol_schedule` and decode this trace their own way.
    """

    #: The sample stream the decoder sees (measurement faults applied).
    samples: Tuple[Tuple[int, int], ...]
    #: The stream as the receiver measured it (pre-fault; equal to
    #: ``samples`` in fault-free runs).
    raw_samples: Tuple[Tuple[int, int], ...]
    sender_perf: PerfReport
    receiver_perf: PerfReport
    elapsed_cycles: float
    fault_schedule: Optional[FaultSchedule]

    @property
    def fault_summary(self) -> Optional[Dict[str, object]]:
        """Injected-fault counts, or ``None`` for fault-free runs."""
        if self.fault_schedule is None:
            return None
        return self.fault_schedule.summary()

    def latencies(self) -> List[int]:
        """The (post-fault) latency series, in sample order."""
        return [latency for _, latency in self.samples]


def transmit_symbol_schedule(
    config: WBChannelConfig,
    schedule: Sequence[int],
    *,
    num_samples: Optional[int] = None,
    fault_round: int = 0,
    symbol_origin: int = 0,
    bench_seed: Optional[int] = None,
    absolute_pacing: bool = False,
) -> TransmissionTrace:
    """Transmit one dirty-count schedule through a fresh testbench.

    The RNG draw order here is load-bearing: hierarchy, target set,
    replacement sets, phase, core — in that order, all off the bench's
    seed stream.  Fault randomness deliberately lives on a *separate*
    stream (``derive_seed(config.seed, "faults/...")``), so enabling
    faults never perturbs the simulated machine itself, and the parity
    suite can compare faulted runs across engines.

    ``fault_round``/``symbol_origin``/``bench_seed`` exist for the ARQ
    retransmission rounds: each round draws a fresh fault schedule and a
    fresh bench, while the drift ramp continues from ``symbol_origin``.
    """
    num_symbols = len(schedule)
    samples_wanted = (
        num_symbols + config.alignment_slack_symbols
        if num_samples is None
        else num_samples
    )

    bench_config = TestbenchConfig(
        seed=config.seed if bench_seed is None else bench_seed,
        hierarchy_overrides=dict(config.hierarchy_overrides),
        hierarchy_factory=config.hierarchy_factory,
        scheduler_noise=config.scheduler_noise,
    )
    if config.tsc is not None:
        bench_config.tsc = config.tsc
    bench = ChannelTestbench(bench_config)
    target_set = bench.pick_target_set(config.target_set)
    layout = bench.l1_layout

    sender_space = bench.new_space(pid=SENDER_TID)
    receiver_space = bench.new_space(pid=RECEIVER_TID)

    sender_lines = build_set_conflicting_lines(
        sender_space, layout, target_set, max(config.codec.max_dirty_lines, 1)
    )
    set_rng = derive_rng(bench.rng, "replacement-sets")
    chase_a = PointerChaseList.from_lines(
        build_replacement_set(
            receiver_space, layout, target_set, config.replacement_set_size, set_rng
        ),
        rng=set_rng,
    )
    chase_b = PointerChaseList.from_lines(
        build_replacement_set(
            receiver_space, layout, target_set, config.replacement_set_size, set_rng
        ),
        rng=set_rng,
    )

    phase = config.receiver_phase
    if phase is None:
        phase = derive_rng(bench.rng, "phase").random()

    fault_schedule: Optional[FaultSchedule] = None
    if config.faults is not None:
        fault_schedule = build_fault_schedule(
            config.faults,
            seed=derive_seed(config.seed, f"faults/round{fault_round}"),
            num_symbols=num_symbols,
            period=config.period_cycles,
            start_time=config.start_time,
            num_slots=samples_wanted,
            symbol_origin=symbol_origin,
        )

    sender = WBSenderProgram(
        lines=sender_lines,
        schedule=schedule,
        period=config.period_cycles,
        start_time=config.start_time,
        ensure_resident=config.sender_ensure_resident,
        desched=desched_plan(fault_schedule, "sender") if fault_schedule else None,
        absolute_pacing=absolute_pacing,
    )
    receiver = WBReceiverProgram(
        chase_a=chase_a,
        chase_b=chase_b,
        period=config.period_cycles,
        start_time=config.start_time,
        num_samples=samples_wanted,
        phase=phase,
        desched=desched_plan(fault_schedule, "receiver") if fault_schedule else None,
        absolute_pacing=absolute_pacing,
    )
    bench.add_thread(SENDER_TID, sender_space, sender, name="wb-sender")
    bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="wb-receiver")
    if fault_schedule is not None and fault_schedule.corunner_bursts:
        corunner_space = bench.new_space(pid=CORUNNER_TID)
        corunner = CoRunnerProgram(
            lines=build_set_conflicting_lines(
                corunner_space, layout, target_set, 4
            ),
            bursts=fault_schedule.corunner_bursts,
        )
        bench.add_thread(CORUNNER_TID, corunner_space, corunner, name="corunner")
    core = bench.run()

    raw_samples = tuple(receiver.samples)
    if fault_schedule is None:
        samples = raw_samples
    else:
        samples = tuple(apply_measurement_faults(raw_samples, fault_schedule))
        bus = bench.hierarchy.telemetry
        if bus is not None:
            emit_fault_events(bus, fault_schedule, target_set)

    elapsed = core.elapsed_cycles()
    return TransmissionTrace(
        samples=samples,
        raw_samples=raw_samples,
        sender_perf=PerfReport.from_stats(
            bench.hierarchy.stats, SENDER_TID, elapsed
        ),
        receiver_perf=PerfReport.from_stats(
            bench.hierarchy.stats, RECEIVER_TID, elapsed
        ),
        elapsed_cycles=elapsed,
        fault_schedule=fault_schedule,
    )


def resolve_channel_decoder(config: WBChannelConfig) -> ThresholdDecoder:
    """The configured decoder, calibrating one if none was injected."""
    if config.decoder is not None:
        return config.decoder
    return calibrate_decoder(
        levels=config.codec.levels,
        repetitions=config.calibration_repetitions,
        replacement_set_size=config.replacement_set_size,
        target_set=config.target_set if config.target_set is not None else 21,
        seed=config.seed,
        hierarchy_overrides=config.hierarchy_overrides,
        hierarchy_factory=config.hierarchy_factory,
        ensure_resident=config.sender_ensure_resident,
    )


def run_wb_channel(config: WBChannelConfig) -> ChannelRunResult:
    """Run one complete WB covert-channel transmission."""
    message = config.resolve_message()
    schedule = config.codec.encode_message(message)

    decoder = resolve_channel_decoder(config)
    trace = transmit_symbol_schedule(config, schedule)

    levels = decoder.classify_many(trace.latencies())
    return score_run(
        config,
        message,
        config.codec.decode_message(levels),
        channel="WB channel",
        sender_perf=trace.sender_perf,
        receiver_perf=trace.receiver_perf,
        elapsed_cycles=trace.elapsed_cycles,
        samples=trace.samples,
        decoder=decoder,
        fault_summary=trace.fault_summary,
    )


def quick_channel_run(
    message_bits: int = 64,
    period_cycles: int = 5500,
    d: int = 1,
    seed: int = 0,
) -> ChannelRunResult:
    """One-call demo run with the binary codec (see the README quickstart)."""
    return run_wb_channel(
        WBChannelConfig(
            codec=BinaryDirtyCodec(d_on=d),
            period_cycles=period_cycles,
            message_bits=message_bits,
            seed=seed,
        )
    )
