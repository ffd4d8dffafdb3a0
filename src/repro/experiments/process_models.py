"""Whole-process models for the stealthiness experiments (Tables 6-7).

The paper reads *process-wide* hardware counters with ``perf``: the
numbers include not just the channel accesses but the process's ordinary
traffic — stack, code, protocol bookkeeping.  To reproduce the relative
patterns of Tables 6 and 7 the sender therefore needs a whole-process
model:

* a small *hot working set* (stack/locals) touched continuously — these
  are the L1 hits that dominate the access count;
* occasional *cold* accesses (fresh heap/library pages) — the compulsory
  misses that give even an idle process a visible L2/LLC miss rate;
* the channel traffic itself (WB stores once per symbol, or the LRU
  channel's continuous modulation loads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.cpu.ops import Load, ResetStats, SpinUntil, Store
from repro.cpu.thread import OpGenerator, Program
from repro.mem.address_space import AddressSpace


@dataclass
class _ProcessActivity:
    """Shared background-traffic machinery for instrumented senders.

    Three tiers, mirroring a real process's reference stream:

    * a *hot* set (stack, loop locals) — the overwhelming majority of
      accesses, L1 hits in steady state;
    * a *warm* region (in-memory state larger than the L2) touched a few
      times per period — its random reuses split between L2 hits and
      LLC hits, producing the mid-range L2/LLC miss rates of Table 6;
    * *cold* first-touch lines (code/library pages faulting in over the
      run) — the compulsory misses that reach DRAM.
    """

    space: AddressSpace
    seed: int = 0
    hot_lines: int = 48
    hot_accesses_per_period: int = 400
    warm_lines: int = 6144  # 384 KB: 1.5x the modelled L2
    warm_accesses_per_period: int = 6
    cold_per_period: float = 0.3
    line_size: int = 64

    def __post_init__(self) -> None:
        for name in ("hot_accesses_per_period", "warm_accesses_per_period"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.cold_per_period < 0:
            raise ConfigurationError("cold_per_period must be >= 0")
        self.rng = ensure_rng(self.seed)
        self.hot_base = self.space.allocate_buffer(self.hot_lines * self.line_size)
        self.warm_base = self.space.allocate_buffer(self.warm_lines * self.line_size)
        self.cold_base = self.space.allocate_buffer(16 << 20)
        self._cold_cursor = 0

    def warmup(self) -> OpGenerator:
        """Touch the hot and warm tiers once (pre-measurement state)."""
        for index in range(self.hot_lines):
            yield Load(self.hot_base + index * self.line_size)
        for index in range(self.warm_lines):
            yield Load(self.warm_base + index * self.line_size)

    def housekeeping(self) -> OpGenerator:
        """One period's worth of background accesses."""
        accesses: list = []
        for _ in range(self.hot_accesses_per_period):
            address = (
                self.hot_base + self.rng.randrange(self.hot_lines) * self.line_size
            )
            accesses.append((address, self.rng.random() < 0.3))
        for _ in range(self.warm_accesses_per_period):
            address = (
                self.warm_base + self.rng.randrange(self.warm_lines) * self.line_size
            )
            accesses.append((address, self.rng.random() < 0.15))
        if self.rng.random() < self.cold_per_period:
            address = self.cold_base + self._cold_cursor * self.line_size
            self._cold_cursor += 1
            accesses.append((address, False))
        self.rng.shuffle(accesses)
        for address, write in accesses:
            if write:
                yield Store(address)
            else:
                yield Load(address)


@dataclass
class InstrumentedWBSender(Program):
    """WB sender (Algorithm 1) embedded in a whole-process model."""

    activity: _ProcessActivity
    lines: Sequence[int]
    schedule: Sequence[int]
    period: int
    start_time: int

    def __post_init__(self) -> None:
        needed = max(self.schedule, default=0)
        if needed > len(self.lines):
            raise ConfigurationError(
                f"schedule needs {needed} lines, got {len(self.lines)}"
            )

    def run(self) -> OpGenerator:
        for line in self.lines:
            yield Load(line)
        yield from self.activity.warmup()
        t_last = yield SpinUntil(self.start_time)
        # Counters start here, like attaching perf to a running process.
        yield ResetStats()
        for dirty_count in self.schedule:
            for line in self.lines[:dirty_count]:
                yield Store(line)
            yield from self.activity.housekeeping()
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class InstrumentedLRUSender(Program):
    """LRU-channel sender with the continuous modulation the paper cites.

    "The LRU channel requires the sender to constantly modulate the
    transmitted bit (accessing the cache line) within the encoding time
    Ts" — modelled as one load of the conflict line every
    ``modulation_interval`` cycles of every 1-window.
    """

    activity: _ProcessActivity
    line: int
    message: Sequence[int]
    period: int
    start_time: int
    modulation_interval: int = 30

    def __post_init__(self) -> None:
        if self.modulation_interval <= 0:
            raise ConfigurationError("modulation_interval must be positive")

    def run(self) -> OpGenerator:
        yield Load(self.line)
        yield from self.activity.warmup()
        t_last = yield SpinUntil(self.start_time)
        yield ResetStats()
        steps = max(1, self.period // self.modulation_interval)
        for bit in self.message:
            if bit:
                for step in range(steps):
                    yield Load(self.line)
                    yield SpinUntil(t_last + (step + 1) * self.modulation_interval)
            yield from self.activity.housekeeping()
            t_last = yield SpinUntil(t_last + self.period)


@dataclass
class InstrumentedBenignProcess(Program):
    """The senders' whole-process model with the channel traffic removed.

    Structurally identical to :class:`InstrumentedWBSender` — warm-up,
    stats reset at ``start_time``, one housekeeping batch per period —
    so any counter difference a monitor sees between this and a sender
    is exactly the channel protocol's own traffic.  The online-detection
    experiment calibrates its detectors on this process and reports its
    false-positive rate.
    """

    activity: _ProcessActivity
    periods: int
    period: int
    start_time: int

    def __post_init__(self) -> None:
        if self.periods < 0:
            raise ConfigurationError("periods must be >= 0")

    def run(self) -> OpGenerator:
        yield from self.activity.warmup()
        t_last = yield SpinUntil(self.start_time)
        yield ResetStats()
        for _ in range(self.periods):
            yield from self.activity.housekeeping()
            t_last = yield SpinUntil(t_last + self.period)


def make_activity(
    space: AddressSpace,
    seed: int = 0,
    hot_accesses_per_period: int = 400,
) -> _ProcessActivity:
    """Build the shared background-activity model for a process."""
    return _ProcessActivity(
        space=space, seed=seed, hot_accesses_per_period=hot_accesses_per_period
    )


__all__: List[str] = [
    "InstrumentedBenignProcess",
    "InstrumentedLRUSender",
    "InstrumentedWBSender",
    "make_activity",
]
