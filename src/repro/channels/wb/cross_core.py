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
protocol does both the delivery and the cleanup.  The sender is the
single-core :class:`~repro.channels.wb.sender.WBSenderProgram`, run on
the shared lines.  Latency grows monotonically with ``d``, so the
existing :class:`~repro.channels.threshold.ThresholdDecoder`, symbol
codecs, message framing and scoring (:mod:`repro.channels.results`)
are reused unchanged.

Sharing is modelled as page-table aliasing
(:func:`~repro.channels.testbench.share_buffer`) — the read-write shared
segment of the paper's covert-channel threat model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.configs import HierarchyParams
from repro.channels.encoding import BinaryDirtyCodec, SymbolCodec
from repro.channels.results import ChannelFraming, ChannelRunResult, score_run
from repro.channels.testbench import ChannelTestbench, TestbenchConfig, share_buffer
from repro.channels.threshold import ThresholdDecoder
from repro.channels.wb.sender import WBSenderProgram
from repro.cpu.ops import Load, RdTSC, SpinUntil
from repro.cpu.perf_counters import PerfReport
from repro.cpu.thread import OpGenerator, Program
from repro.mem.sets import build_set_conflicting_lines
from repro.telemetry.bus import subscribed

#: Hardware thread ids; the coherent hierarchy maps tid -> core by
#: ``tid % cores``, so these also name the cores.
SENDER_TID = 0
RECEIVER_TID = 1

#: Phase used for calibration probes (mid-period, clear of the stores).
CALIBRATION_PHASE = 0.6


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
class CrossCoreWBChannelConfig(ChannelFraming):
    """One cross-core WB covert-channel run.

    The period sits between the L1 channel's (both endpoints pay only a
    handful of loads/stores per symbol) and the L2 channel's (no eviction
    sweeps are needed), dominated by the receiver's per-line downgrade
    round-trips.
    """

    period_cycles: int = 9000
    message_bits: int = 64
    codec: SymbolCodec = field(default_factory=lambda: BinaryDirtyCodec(d_on=4))
    #: Cores in the default topology when ``hierarchy`` is None.
    cores: int = 2
    #: L1 set the shared lines collide in (keeps detector geometry
    #: aligned with the single-core scenarios).
    target_set: int = 21
    receiver_phase: Optional[float] = None
    #: Multi-core topology; ``None`` = Xeon E5-2650 with ``cores`` cores.
    hierarchy: Optional[HierarchyParams] = None
    calibration_repetitions: int = 30
    decoder: Optional[ThresholdDecoder] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.calibration_repetitions <= 0:
            raise ConfigurationError(
                "calibration_repetitions must be positive, "
                f"got {self.calibration_repetitions}"
            )

    @property
    def bits_per_symbol(self) -> int:
        """Message bits per symbol: the codec's."""
        return self.codec.bits_per_symbol

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

    sender = WBSenderProgram(
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

    with subscribed(hierarchy, subscribers):
        core = bench.run()

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
    return score_run(
        config,
        message,
        config.codec.decode_message(levels),
        channel="WB channel",
        sender_perf=transmission.sender_perf,
        receiver_perf=transmission.receiver_perf,
        elapsed_cycles=transmission.elapsed_cycles,
        samples=transmission.samples,
        decoder=decoder,
    )
