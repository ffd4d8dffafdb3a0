"""Prime+Probe covert channel (Osvik, Shamir & Tromer).

The classic contention-based Hit+Miss channel the paper contrasts with in
Sections 6 and 6.1.  The receiver *primes* the target set with its own W
lines, waits, then *probes* them in reverse order counting misses; the
sender evicts receiver lines by loading its own conflict lines to send 1.

Reproduced properties the experiments rely on:

* a noise line loaded by any third process also evicts a receiver line,
  so 0-symbols decode as false 1s under pollution (stability experiment);
* under a random replacement policy the receiver cannot reliably keep the
  set primed and 0-8 misses appear per probe (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.channels.results import ChannelFraming, ChannelRunResult, score_run
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.cpu.ops import Load, RdTSC, SpinUntil
from repro.cpu.perf_counters import PerfReport
from repro.cpu.thread import OpGenerator, Program
from repro.mem.sets import build_set_conflicting_lines

SENDER_TID = 0
RECEIVER_TID = 1


@dataclass
class PrimeProbeSenderProgram(Program):
    """Loads ``evict_lines`` of its conflict lines once per 1-window."""

    lines: Sequence[int]
    message: Sequence[int]
    period: int
    start_time: int
    evict_lines: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.evict_lines <= len(self.lines):
            raise ConfigurationError(
                f"evict_lines must be in [1, {len(self.lines)}], got {self.evict_lines}"
            )

    def run(self) -> OpGenerator:
        for line in self.lines:
            yield Load(line)  # warm-up (also leaves lines in L2)
        t_last = yield SpinUntil(self.start_time)
        for bit in self.message:
            if bit:
                for line in self.lines[: self.evict_lines]:
                    yield Load(line)
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class PrimeProbeReceiverProgram(Program):
    """Primes the set, waits one period, probes in reverse order."""

    lines: Sequence[int]
    period: int
    start_time: int
    num_samples: int
    phase: float = 0.5

    def __post_init__(self) -> None:
        if len(self.lines) < 2:
            raise ConfigurationError("Prime+Probe needs at least two lines")
        #: Per sample: (tsc, number of probe misses).
        self.samples: List[Tuple[int, int]] = []
        #: L1-hit/miss latency boundary used while probing.
        self.miss_threshold: float = 8.0

    def run(self) -> OpGenerator:
        # Initial prime.
        for line in self.lines:
            yield Load(line)
        t_last = yield SpinUntil(self.start_time + int(self.phase * self.period))
        for _ in range(self.num_samples):
            now = yield RdTSC()
            misses = 0
            # Reverse traversal avoids thrashing on LRU-like policies
            # (Section 6.1 notes this trick fails under random policies).
            for line in reversed(self.lines):
                latency = yield Load(line)
                if latency > self.miss_threshold:
                    misses += 1
            self.samples.append((now, misses))
            t_last = yield SpinUntil(t_last + self.period)

    def miss_counts(self) -> List[int]:
        """Probe miss counts in sample order."""
        return [misses for _, misses in self.samples]


@dataclass
class PrimeProbeConfig(ChannelFraming):
    """One Prime+Probe covert-channel run."""

    target_set: Optional[int] = 21
    hierarchy_overrides: Dict[str, object] = field(default_factory=dict)
    sender_evict_lines: int = 2


def run_prime_probe_channel(
    config: PrimeProbeConfig,
    extra_threads: Optional[Callable[[ChannelTestbench], None]] = None,
) -> ChannelRunResult:
    """Run one Prime+Probe transmission and score it.

    ``extra_threads``, when given, registers more threads on the bench
    after the sender and the receiver (a noise process, say).
    """
    message = config.resolve_message()
    bench = ChannelTestbench(
        TestbenchConfig(
            seed=config.seed,
            hierarchy_overrides=dict(config.hierarchy_overrides),
            scheduler_noise=config.scheduler_noise,
        )
    )
    target_set = bench.pick_target_set(config.target_set)
    layout = bench.l1_layout
    ways = bench.hierarchy.l1.associativity

    sender_space = bench.new_space(pid=SENDER_TID)
    receiver_space = bench.new_space(pid=RECEIVER_TID)
    sender_lines = build_set_conflicting_lines(
        sender_space, layout, target_set, config.sender_evict_lines
    )
    receiver_lines = build_set_conflicting_lines(
        receiver_space, layout, target_set, ways
    )

    sender = PrimeProbeSenderProgram(
        lines=sender_lines,
        message=message,
        period=config.period_cycles,
        start_time=config.start_time,
        evict_lines=config.sender_evict_lines,
    )
    receiver = PrimeProbeReceiverProgram(
        lines=receiver_lines,
        period=config.period_cycles,
        start_time=config.start_time,
        num_samples=len(message) + config.alignment_slack_symbols,
    )
    bench.add_thread(SENDER_TID, sender_space, sender, name="pp-sender")
    bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="pp-receiver")
    if extra_threads is not None:
        extra_threads(bench)
    elapsed = bench.run().elapsed_cycles()

    stats = bench.hierarchy.stats
    return score_run(
        config,
        message,
        [1 if misses > 0 else 0 for misses in receiver.miss_counts()],
        channel="Prime+Probe",
        sender_perf=PerfReport.from_stats(stats, SENDER_TID, elapsed),
        receiver_perf=PerfReport.from_stats(stats, RECEIVER_TID, elapsed),
        elapsed_cycles=elapsed,
    )
