"""The WB channel **across cores**, over MESI downgrade write-backs.

The paper's channel lives inside one SMT core: sender and receiver share
an L1D, and the signal is the dirty-victim replacement penalty.  With the
multi-core model (:mod:`repro.coherence`) the same dirty state leaks
*across* cores:

* the **sender** (core 0) stores to ``d`` shared lines — an RFO that
  invalidates the receiver's copies and leaves the sender's Modified;
* the **receiver** (core 1) times loads of those lines each period.  A
  line the sender dirtied misses the receiver's L1, and the directory
  must first drain the sender's Modified copy into the shared L2 (the
  M→S downgrade write-back) before the fill completes —
  ``l2_hit + l1_writeback_penalty`` ≈ 22 cycles against ≈ 4 for an
  untouched line (the receiver still holds it Shared).

The probe itself re-acquires the lines Shared, resetting the state for
the next symbol: no eviction sets, no pointer chases — the coherence
protocol does both the delivery and the cleanup.  Latency grows
monotonically with ``d``, so the existing
:class:`~repro.channels.threshold.ThresholdDecoder`, symbol codecs and
framing stack are reused unchanged.

Sharing is modelled as page-table aliasing
(:func:`~repro.channels.testbench.share_buffer`) — the read-write shared
segment of the paper's covert-channel threat model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bits import random_bits
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.common.units import cycles_to_kbps
from repro.analysis.ber import DEFAULT_PREAMBLE, evaluate_transmission
from repro.cache.configs import HierarchyParams
from repro.channels.encoding import BinaryDirtyCodec, SymbolCodec
from repro.channels.testbench import ChannelTestbench, TestbenchConfig, share_buffer
from repro.channels.threshold import ThresholdDecoder
from repro.channels.wb.protocol import ChannelRunResult
from repro.cpu.noise import SchedulerNoise
from repro.cpu.ops import Load, RdTSC, SpinUntil, Store
from repro.cpu.perf_counters import PerfReport
from repro.cpu.thread import OpGenerator, Program
from repro.mem.sets import build_set_conflicting_lines

#: Hardware thread ids; the coherent hierarchy maps tid -> core by
#: ``tid % cores``, so these also name the cores.
SENDER_TID = 0
RECEIVER_TID = 1

#: Phase used for calibration probes (mid-period, clear of the stores).
CALIBRATION_PHASE = 0.6


@dataclass
class CrossCoreSenderProgram(Program):
    """Encode by storing to shared lines: RFO → Modified on core 0."""

    lines: Sequence[int]
    schedule: Sequence[int]
    period: int
    start_time: int

    def __post_init__(self) -> None:
        needed = max(self.schedule, default=0)
        if needed > len(self.lines):
            raise ConfigurationError(
                f"schedule needs {needed} shared lines, got {len(self.lines)}"
            )

    def run(self) -> OpGenerator:
        for line in self.lines:
            yield Load(line)
        t_last = yield SpinUntil(self.start_time)
        for dirty_count in self.schedule:
            for line in self.lines[:dirty_count]:
                yield Store(line)
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class CrossCoreReceiverProgram(Program):
    """Time one load of every shared line per period, on core 1."""

    lines: Sequence[int]
    period: int
    start_time: int
    num_samples: int
    phase: float = CALIBRATION_PHASE

    def __post_init__(self) -> None:
        if not self.lines:
            raise ConfigurationError("receiver needs at least one shared line")
        if self.num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        self.samples: List[Tuple[int, int]] = []

    def run(self) -> OpGenerator:
        for line in self.lines:
            yield Load(line)
        t_last = yield SpinUntil(
            self.start_time + int(self.phase * self.period)
        )
        for _ in range(self.num_samples):
            start = yield RdTSC()
            for line in self.lines:
                yield Load(line)
            end = yield RdTSC()
            self.samples.append((start, end - start))
            t_last = yield SpinUntil(t_last + self.period)

    def latencies(self) -> List[int]:
        """Latency series in sample order."""
        return [latency for _, latency in self.samples]


@dataclass
class CrossCoreWBChannelConfig:
    """One cross-core WB covert-channel run.

    The period sits between the L1 channel's (both endpoints pay only a
    handful of loads/stores per symbol) and the L2 channel's (no eviction
    sweeps are needed), dominated by the receiver's per-line downgrade
    round-trips.
    """

    codec: SymbolCodec = field(default_factory=lambda: BinaryDirtyCodec(d_on=4))
    period_cycles: int = 9000
    message_bits: int = 64
    preamble: Sequence[int] = field(default_factory=lambda: list(DEFAULT_PREAMBLE))
    #: Cores in the default topology when ``hierarchy`` is None.
    cores: int = 2
    #: L1 set the shared lines collide in (keeps detector geometry
    #: aligned with the single-core scenarios).
    target_set: int = 21
    receiver_phase: Optional[float] = None
    alignment_slack_symbols: int = 4
    start_time: int = 30000
    seed: int = 0
    scheduler_noise: Optional[SchedulerNoise] = None
    #: Multi-core topology; ``None`` = Xeon E5-2650 with ``cores`` cores.
    hierarchy: Optional[HierarchyParams] = None
    calibration_repetitions: int = 30
    decoder: Optional[ThresholdDecoder] = None

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise ConfigurationError(
                f"period_cycles must be positive, got {self.period_cycles}"
            )
        if self.calibration_repetitions <= 0:
            raise ConfigurationError(
                "calibration_repetitions must be positive, "
                f"got {self.calibration_repetitions}"
            )

    def resolve_hierarchy(self) -> HierarchyParams:
        """The multi-core topology this run simulates (cores >= 2)."""
        params = self.hierarchy
        if params is None:
            params = HierarchyParams.xeon(cores=self.cores)
        if params.cores < 2:
            raise ConfigurationError(
                f"cross-core channel needs cores >= 2, got {params.cores}"
            )
        return params

    def resolve_message(self) -> List[int]:
        """Preamble plus random payload."""
        preamble = list(self.preamble)
        payload = self.message_bits - len(preamble)
        if payload < 0:
            raise ConfigurationError("message_bits shorter than preamble")
        rng = derive_rng(ensure_rng(self.seed), "message")
        return preamble + random_bits(payload, rng)

    @property
    def rate_kbps(self) -> float:
        """Nominal transmission rate."""
        return cycles_to_kbps(self.period_cycles, self.codec.bits_per_symbol)


@dataclass(frozen=True)
class CrossCoreTransmission:
    """What one paced cross-core transmission measured."""

    samples: Tuple[Tuple[int, int], ...]
    sender_perf: PerfReport
    receiver_perf: PerfReport
    elapsed_cycles: float
    #: Coherence protocol counters accumulated over the run.
    coherence: Dict[str, int]

    def latencies(self) -> List[int]:
        """The latency series, in sample order."""
        return [latency for _, latency in self.samples]


def transmit_cross_core_schedule(
    config: CrossCoreWBChannelConfig,
    schedule: Sequence[int],
    phase: float,
    num_samples: int,
    subscribers: Sequence[object] = (),
) -> CrossCoreTransmission:
    """Run sender and receiver over one symbol schedule.

    ``subscribers`` are attached to the hierarchy's telemetry bus for the
    duration of the run (per-core online detectors); with none, the run
    is telemetry-free unless a session is active.
    """
    params = config.resolve_hierarchy()
    bench = ChannelTestbench(
        TestbenchConfig(
            seed=config.seed,
            hierarchy_factory=lambda rng: params.build(rng=rng),
            scheduler_noise=config.scheduler_noise,
        )
    )
    hierarchy = bench.hierarchy
    target_set = bench.pick_target_set(config.target_set)
    sender_space = bench.new_space(pid=SENDER_TID)
    receiver_space = bench.new_space(pid=RECEIVER_TID)
    line_size = bench.l1_layout.line_size
    lines = build_set_conflicting_lines(
        sender_space,
        bench.l1_layout,
        target_set,
        max(config.codec.max_dirty_lines, 1),
    )
    # The shared segment: alias every line's page into the receiver's
    # space, so both processes address the same physical lines.
    for line in lines:
        share_buffer(sender_space, receiver_space, line, line_size)

    sender = CrossCoreSenderProgram(
        lines=lines,
        schedule=schedule,
        period=config.period_cycles,
        start_time=config.start_time,
    )
    receiver = CrossCoreReceiverProgram(
        lines=lines,
        period=config.period_cycles,
        start_time=config.start_time,
        num_samples=num_samples,
        phase=phase,
    )
    bench.add_thread(SENDER_TID, sender_space, sender, name="xc-sender")
    bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="xc-receiver")

    bus = hierarchy.telemetry
    owned_bus = subscribers and bus is None
    if owned_bus:
        from repro.telemetry.bus import TelemetryBus

        bus = hierarchy.attach_telemetry(TelemetryBus())
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    try:
        core = bench.run()
    finally:
        for subscriber in subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()
            bus.unsubscribe(subscriber)
        if owned_bus:
            hierarchy.detach_telemetry()

    elapsed = core.elapsed_cycles()
    stats = hierarchy.stats
    return CrossCoreTransmission(
        samples=tuple(receiver.samples),
        sender_perf=PerfReport.from_stats(stats, SENDER_TID, elapsed),
        receiver_perf=PerfReport.from_stats(stats, RECEIVER_TID, elapsed),
        elapsed_cycles=elapsed,
        coherence=dict(hierarchy.coherence.snapshot()),
    )


def calibrate_cross_core(config: CrossCoreWBChannelConfig) -> ThresholdDecoder:
    """Latency profiling: transmit a known level schedule, bucket by level.

    Unlike the single-core channels the cross-core receiver cannot
    profile alone — the signal *is* the other core's Modified copy — so
    calibration is a short two-party transmission of every codec level at
    a fixed phase, exactly what a real attacker pair would run before
    agreeing on thresholds.
    """
    levels = config.codec.levels
    schedule = [
        level for _ in range(config.calibration_repetitions) for level in levels
    ]
    transmission = transmit_cross_core_schedule(
        config, schedule, CALIBRATION_PHASE, num_samples=len(schedule)
    )
    samples: Dict[int, List[float]] = defaultdict(list)
    for level, latency in zip(schedule, transmission.latencies()):
        samples[level].append(float(latency))
    return ThresholdDecoder.calibrate(dict(samples))


def run_cross_core_wb_channel(
    config: CrossCoreWBChannelConfig,
    subscribers: Sequence[object] = (),
    coherence_out: Optional[Dict[str, int]] = None,
) -> ChannelRunResult:
    """Run one cross-core WB covert-channel transmission.

    ``coherence_out``, when given, is updated in place with the run's
    protocol counters (:meth:`CoherenceStats.snapshot`) —
    :class:`ChannelRunResult` is frozen and shared with the single-core
    channels, so the coherence view rides alongside it.
    """
    message = config.resolve_message()
    schedule = config.codec.encode_message(message)
    decoder = config.decoder or calibrate_cross_core(config)

    phase = config.receiver_phase
    if phase is None:
        phase = derive_rng(ensure_rng(config.seed), "phase").random()
    transmission = transmit_cross_core_schedule(
        config,
        schedule,
        phase,
        num_samples=len(schedule) + config.alignment_slack_symbols,
        subscribers=subscribers,
    )
    if coherence_out is not None:
        coherence_out.update(transmission.coherence)
    levels = decoder.classify_many(transmission.latencies())
    received_raw = config.codec.decode_message(levels)
    report = evaluate_transmission(
        sent=message,
        received_raw=received_raw,
        preamble_length=len(config.preamble),
        alignment_slack=(
            config.alignment_slack_symbols * config.codec.bits_per_symbol
        ),
    )
    return ChannelRunResult(
        sent_bits=tuple(message),
        received_bits=tuple(report.received),
        bit_error_rate=report.ber,
        errors=report.errors,
        alignment_offset=report.offset,
        rate_kbps=config.rate_kbps,
        period_cycles=config.period_cycles,
        samples=transmission.samples,
        decoder=decoder,
        sender_perf=transmission.sender_perf,
        receiver_perf=transmission.receiver_perf,
        elapsed_cycles=transmission.elapsed_cycles,
        fault_summary=None,
    )
