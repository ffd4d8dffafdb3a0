"""The LRU-state covert channel of Xiong & Szefer (HPCA 2020).

The paper's closest relative and its main comparison baseline (Section 6).
In the no-shared-memory variant the receiver keeps the target set full of
its own lines with line 0 deliberately the oldest; the sender transmits 1
by *loading* one conflict line of its own, which evicts the receiver's
line 0.  The receiver decodes by timing a reload of line 0: an L1 hit means
0, a miss means 1.

Contrast with the WB channel, reproduced here deliberately:

* the sender must keep modulating within the window (we model the paper's
  description with ``accesses_per_symbol`` sender loads per 1-symbol),
  giving it roughly twice the WB sender's cache traffic (Table 7);
* any noise line loaded into the set by a third process also evicts
  line 0, producing false 1s (Figure 9a) — the stability experiment
  exploits exactly this.
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
class LRUSenderProgram(Program):
    """Loads a conflict line ``accesses_per_symbol`` times per 1-window."""

    line: int
    message: Sequence[int]
    period: int
    start_time: int
    accesses_per_symbol: int = 1

    def __post_init__(self) -> None:
        if self.accesses_per_symbol <= 0:
            raise ConfigurationError("accesses_per_symbol must be positive")

    def run(self) -> OpGenerator:
        yield Load(self.line)  # warm-up
        t_last = yield SpinUntil(self.start_time)
        sub_period = self.period // self.accesses_per_symbol
        for bit in self.message:
            if bit:
                for step in range(self.accesses_per_symbol):
                    yield Load(self.line)
                    if step + 1 < self.accesses_per_symbol:
                        yield SpinUntil(t_last + (step + 1) * sub_period)
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class LRUReceiverProgram(Program):
    """Maintains the set with line 0 oldest; times line-0 reloads."""

    lines: Sequence[int]  # lines[0] is the probed line
    period: int
    start_time: int
    num_samples: int
    phase: float = 0.5

    def __post_init__(self) -> None:
        if len(self.lines) < 2:
            raise ConfigurationError("LRU receiver needs at least two lines")
        #: Latency of the line-0 probe per sample.
        self.samples: List[Tuple[int, int]] = []

    def run(self) -> OpGenerator:
        # Prime: line 0 first so it is the oldest, then the rest.
        for line in self.lines:
            yield Load(line)
        t_last = yield SpinUntil(self.start_time + int(self.phase * self.period))
        for _ in range(self.num_samples):
            now = yield RdTSC()
            # The probe uses the dependent-load measurement of Section 4.2,
            # so the recorded value is the load latency itself.
            latency = yield Load(self.lines[0])
            self.samples.append((now, latency))
            # Re-establish the set: line 0 was just loaded (now newest), so
            # refresh the others to push line 0 back toward LRU.
            for line in self.lines[1:]:
                yield Load(line)
            t_last = yield SpinUntil(t_last + self.period)

    def latencies(self) -> List[int]:
        """Probe latency series in sample order."""
        return [latency for _, latency in self.samples]


@dataclass
class LRUChannelConfig(ChannelFraming):
    """One LRU-channel run (framing defaults shared with the WB channel)."""

    target_set: Optional[int] = 21
    hierarchy_overrides: Dict[str, object] = field(default_factory=dict)
    #: How many times the sender re-touches its line per 1-window.  One
    #: access is enough against a receiver sampling once per window; the
    #: Table 7 stealth comparison uses 2 to model Xiong's Tr < Ts protocol
    #: where the sender must keep the LRU state fresh between receiver
    #: samples (that cadence is exactly why the LRU sender produces ~1.7x
    #: the WB sender's cache loads).
    sender_accesses_per_symbol: int = 1
    #: Latency above which a line-0 probe counts as a miss.  The L1 hit is
    #: ~4-5 cycles and an L2 hit ~11+, so 8 separates them cleanly; the
    #: probe bracket adds the TSC overhead, handled below.
    miss_threshold: float = 8.0


def run_lru_channel(
    config: LRUChannelConfig,
    extra_threads: Optional[Callable[[ChannelTestbench], None]] = None,
) -> ChannelRunResult:
    """Run one LRU-channel transmission and score it.

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
    sender_line = build_set_conflicting_lines(sender_space, layout, target_set, 1)[0]
    receiver_lines = build_set_conflicting_lines(
        receiver_space, layout, target_set, ways
    )

    sender = LRUSenderProgram(
        line=sender_line,
        message=message,
        period=config.period_cycles,
        start_time=config.start_time,
        accesses_per_symbol=config.sender_accesses_per_symbol,
    )
    receiver = LRUReceiverProgram(
        lines=receiver_lines,
        period=config.period_cycles,
        start_time=config.start_time,
        num_samples=len(message) + config.alignment_slack_symbols,
    )
    bench.add_thread(SENDER_TID, sender_space, sender, name="lru-sender")
    bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="lru-receiver")
    if extra_threads is not None:
        extra_threads(bench)
    elapsed = bench.run().elapsed_cycles()

    stats = bench.hierarchy.stats
    return score_run(
        config,
        message,
        [
            1 if latency > config.miss_threshold else 0
            for latency in receiver.latencies()
        ],
        channel="LRU",
        sender_perf=PerfReport.from_stats(stats, SENDER_TID, elapsed),
        receiver_perf=PerfReport.from_stats(stats, RECEIVER_TID, elapsed),
        elapsed_cycles=elapsed,
    )
