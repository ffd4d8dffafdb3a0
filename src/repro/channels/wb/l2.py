"""Extension: the WB channel on the **L2** cache.

Section 3 of the paper: "The WB time channel can be deployed not only on
the L1 cache but also on other levels of caches.  However, that requires
more operations from the sender."  The paper stops there; this module
builds it.

What changes relative to the L1 channel
---------------------------------------
* **Encoding** costs more: a store only dirties the *L1* copy, so the
  sender must additionally evict its line from L1 (by touching an L1
  eviction set of its own) before the dirty line lands in L2 — the
  "more operations" the paper predicts.
* **Decoding** times L2 replacements: the receiver's replacement set
  collides in one *L2* set; each traversal load misses L1 and L2, hits
  the LLC and fills L2, and every dirty L2 victim adds the L2 write-back
  penalty.  The hierarchy must charge deep write-backs for this to be
  measurable (``charge_deep_writebacks=True`` — an L2 with a single fill
  port stalls on the victim drain exactly like the L1 does).  The
  receiver program itself is the L1 channel's
  :class:`~repro.channels.wb.receiver.WBReceiverProgram`, handed the two
  L2 line lists in allocation order.
* **Set agreement** is harder: the L2 is physically indexed, so the
  parties cannot aim at a set from virtual addresses alone.  Real
  attackers solve this with eviction-set profiling (see
  :func:`repro.defenses.randomized_mapping.find_eviction_set`); this
  module's :func:`build_l2_conflict_lines` performs the equivalent
  construction directly from the page tables and is documented as the
  stand-in for that profiling step.

Lines that share an L2 set also share their L1 set (the L1 index bits
are a subset of the L2 index bits), so the sender's L1 self-eviction set
doubles as extra L2-set pressure; the implementation keeps them separate
for clarity.

What does not change: the message framing, the preamble alignment and
the scoring (:mod:`repro.channels.results`), and the run result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_rng
from repro.cache.configs import make_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.channels.encoding import BinaryDirtyCodec, SymbolCodec
from repro.channels.results import ChannelFraming, ChannelRunResult, score_run
from repro.channels.testbench import ChannelTestbench, TestbenchConfig
from repro.channels.threshold import ThresholdDecoder
from repro.channels.wb.receiver import WBReceiverProgram
from repro.cpu.noise import SchedulerNoise
from repro.cpu.ops import Load, RdTSC, SpinUntil, Store
from repro.cpu.perf_counters import PerfReport
from repro.cpu.thread import OpGenerator, Program
from repro.mem.address_space import AddressSpace
from repro.mem.sets import build_set_conflicting_lines

SENDER_TID = 0
RECEIVER_TID = 1


def make_l2_channel_hierarchy(rng: Optional[random.Random] = None) -> CacheHierarchy:
    """Xeon-like hierarchy that charges L2 write-back penalties.

    :func:`make_xeon_hierarchy` on the selected engine, with
    ``charge_deep_writebacks=True``: an L2 fill over a dirty victim stalls
    on the drain to the LLC, which is the latency the L2 channel measures.
    """
    hierarchy = make_xeon_hierarchy(rng=rng)
    hierarchy.charge_deep_writebacks = True
    return hierarchy


def build_l2_conflict_lines(
    space: AddressSpace,
    hierarchy: CacheHierarchy,
    target_l2_set: int,
    count: int,
    max_pages: int = 4096,
) -> List[int]:
    """Virtual lines of ``space`` whose *physical* L2 index is the target.

    Walks freshly-allocated pages and keeps the lines whose physical
    address falls into the target L2 set.  The L2 index bits inside the
    page offset are controllable from the virtual address; the frame bits
    are found by this scan — the simulator-level equivalent of the
    timing-based eviction-set profiling a real attacker performs.
    """
    l2 = hierarchy.levels[1]
    layout = l2.layout
    if not 0 <= target_l2_set < layout.num_sets:
        raise ConfigurationError(
            f"target_l2_set {target_l2_set} out of range [0, {layout.num_sets})"
        )
    lines: List[int] = []
    offset_within_page = (target_l2_set * layout.line_size) & 0xFFF
    for _ in range(max_pages):
        if len(lines) >= count:
            return lines
        base = space.allocate_buffer(4096)
        virtual = base + offset_within_page
        if layout.set_index(space.translate(virtual)) == target_l2_set:
            lines.append(virtual)
    raise SimulationError(
        f"could not find {count} L2-conflicting lines in {max_pages} pages"
    )


@dataclass
class L2WBSenderProgram(Program):
    """Encode by dirtying L2 lines: store, then self-evict from L1."""

    lines: Sequence[int]
    #: The sender's own L1 eviction set (evicts its dirty lines to L2).
    l1_eviction_lines: Sequence[int]
    schedule: Sequence[int]
    period: int
    start_time: int

    def __post_init__(self) -> None:
        needed = max(self.schedule, default=0)
        if needed > len(self.lines):
            raise ConfigurationError(
                f"schedule needs {needed} conflict lines, got {len(self.lines)}"
            )
        if not self.l1_eviction_lines:
            raise ConfigurationError("sender needs an L1 eviction set")

    def run(self) -> OpGenerator:
        for line in list(self.lines) + list(self.l1_eviction_lines):
            yield Load(line)
        t_last = yield SpinUntil(self.start_time)
        for dirty_count in self.schedule:
            # Encoding phase, step 1: dirty the L1 copies.
            for line in self.lines[:dirty_count]:
                yield Store(line)
            # Step 2 ("more operations from the sender"): push the dirty
            # lines down to L2 by sweeping the sender's own L1 set.
            if dirty_count:
                for line in self.l1_eviction_lines:
                    yield Load(line)
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class L2WBChannelConfig(ChannelFraming):
    """One L2 WB covert-channel run.

    The default period is longer than the L1 channel's because both the
    encode (store + L1 sweep) and the measurement (LLC-latency loads)
    cost more — the paper's predicted bandwidth penalty for deeper levels.
    """

    period_cycles: int = 22000
    message_bits: int = 64
    start_time: int = 60000
    codec: SymbolCodec = field(default_factory=lambda: BinaryDirtyCodec(d_on=4))
    target_l2_set: int = 137
    replacement_set_size: int = 12
    receiver_phase: Optional[float] = None
    calibration_repetitions: int = 40
    decoder: Optional[ThresholdDecoder] = None

    @property
    def bits_per_symbol(self) -> int:
        """Message bits per symbol: the codec's."""
        return self.codec.bits_per_symbol


def _calibrate(config: L2WBChannelConfig) -> ThresholdDecoder:
    """Single-process latency profiling on a fresh L2-channel machine."""
    bench = ChannelTestbench(
        TestbenchConfig(
            seed=config.seed,
            hierarchy_factory=make_l2_channel_hierarchy,
            scheduler_noise=SchedulerNoise.disabled(),
        )
    )
    space = bench.new_space(pid=1)
    hierarchy = bench.hierarchy
    writer = build_l2_conflict_lines(
        space, hierarchy, config.target_l2_set, config.codec.max_dirty_lines
    )
    chase_a = build_l2_conflict_lines(
        space, hierarchy, config.target_l2_set, config.replacement_set_size
    )
    chase_b = build_l2_conflict_lines(
        space, hierarchy, config.target_l2_set, config.replacement_set_size
    )
    # The calibration probe needs the sender's L1-sweep too: writer lines
    # share one L1 set (same page-offset), so sweeping any 10 L1-conflict
    # lines pushes them to L2.  The replacement-set lines themselves share
    # that L1 set, so the traversal doubles as the sweep.
    samples: Dict[int, List[float]] = {level: [] for level in config.codec.levels}

    class _Probe(Program):
        def run(self) -> OpGenerator:
            for line in writer + chase_a + chase_b:
                yield Load(line)
            for rep in range(config.calibration_repetitions):
                for level in config.codec.levels:
                    for line in writer[:level]:
                        yield Store(line)
                    chase = chase_a if rep % 2 == 0 else chase_b
                    start = yield RdTSC()
                    for line in chase:
                        yield Load(line)
                    end = yield RdTSC()
                    samples[level].append(float(end - start))

    bench.add_thread(1, space, _Probe(), name="l2-probe")
    bench.run()
    return ThresholdDecoder.calibrate(samples)


def run_l2_wb_channel(config: L2WBChannelConfig) -> ChannelRunResult:
    """Run one L2 WB covert-channel transmission."""
    message = config.resolve_message()
    schedule = config.codec.encode_message(message)
    decoder = config.decoder or _calibrate(config)

    bench = ChannelTestbench(
        TestbenchConfig(
            seed=config.seed,
            hierarchy_factory=make_l2_channel_hierarchy,
            scheduler_noise=config.scheduler_noise,
        )
    )
    hierarchy = bench.hierarchy
    sender_space = bench.new_space(pid=SENDER_TID)
    receiver_space = bench.new_space(pid=RECEIVER_TID)

    sender_lines = build_l2_conflict_lines(
        sender_space, hierarchy, config.target_l2_set,
        max(config.codec.max_dirty_lines, 1),
    )
    # The sender's lines share an L1 set (identical page offsets); an L1
    # sweep needs >= 10 lines in that set from anywhere in its own space.
    l1_layout = hierarchy.l1.layout
    l1_set = l1_layout.set_index(sender_lines[0])
    sweep_lines = build_set_conflicting_lines(sender_space, l1_layout, l1_set, 10)
    chase_a = build_l2_conflict_lines(
        receiver_space, hierarchy, config.target_l2_set, config.replacement_set_size
    )
    chase_b = build_l2_conflict_lines(
        receiver_space, hierarchy, config.target_l2_set, config.replacement_set_size
    )

    phase = config.receiver_phase
    if phase is None:
        phase = derive_rng(bench.rng, "phase").random()
    sender = L2WBSenderProgram(
        lines=sender_lines,
        l1_eviction_lines=sweep_lines,
        schedule=schedule,
        period=config.period_cycles,
        start_time=config.start_time,
    )
    receiver = WBReceiverProgram(
        chase_a=chase_a,
        chase_b=chase_b,
        period=config.period_cycles,
        start_time=config.start_time,
        num_samples=len(schedule) + config.alignment_slack_symbols,
        phase=phase,
    )
    bench.add_thread(SENDER_TID, sender_space, sender, name="l2-sender")
    bench.add_thread(RECEIVER_TID, receiver_space, receiver, name="l2-receiver")
    elapsed = bench.run().elapsed_cycles()

    levels = decoder.classify_many(receiver.latencies())
    return score_run(
        config,
        message,
        config.codec.decode_message(levels),
        channel="L2 WB channel",
        sender_perf=PerfReport.from_stats(hierarchy.stats, SENDER_TID, elapsed),
        receiver_perf=PerfReport.from_stats(hierarchy.stats, RECEIVER_TID, elapsed),
        elapsed_cycles=elapsed,
        samples=tuple(receiver.samples),
        decoder=decoder,
    )
