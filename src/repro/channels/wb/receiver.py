"""WB channel receiver — Algorithm 2 + the receiver half of Algorithm 3.

Each sample is one pointer-chased traversal of a replacement set bracketed
by TSC reads (Listing 1 of the paper).  Two replacement sets, A and B, are
used alternately: after a traversal of A its lines occupy the L1 target
set, so the *next* decode must use B (whose lines the A-traversal just
pushed to L2) — and every decode leaves the target set full of clean lines,
doubling as the next symbol's initialisation phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.ops import Delay, Load, RdTSC, SpinUntil
from repro.cpu.thread import OpGenerator, Program


@dataclass
class WBReceiverProgram(Program):
    """Samples the target set's replacement latency once per period.

    Parameters
    ----------
    chase_a, chase_b:
        The two replacement sets (Algorithm 2's sets A and B), in
        traversal order: pointer-chase lists on the L1 channel, plain
        line lists on the L2 channel.
    period:
        ``Tr`` in cycles (the paper always uses ``Tr = Ts``).
    start_time:
        Protocol epoch shared with the sender.
    num_samples:
        How many symbol windows to sample.
    phase:
        Fraction of the first period to wait before the first measurement;
        0.6 places each sample inside its symbol's window, after the
        sender's encode but before the next window opens.
    """

    chase_a: Sequence[int]
    chase_b: Sequence[int]
    period: int
    start_time: int
    num_samples: int
    phase: float = 0.6
    #: Fault injection (``repro.faults``): ``{slot_index: cycles}`` of
    #: descheduling windows.  A window longer than the remaining period
    #: shifts the sampling grid, so the receiver skips sender symbols
    #: (deletions) — the slip the framing layer resynchronises around.
    desched: Optional[Mapping[int, int]] = None
    #: Hardened pacing: spin to the absolute sample grid
    #: ``start + phase·period + k·period`` instead of chaining off the
    #: previous wake-up, so a descheduling window costs the samples it
    #: covers and the grid re-locks.  Off by default — the raw protocol
    #: chains, and every baseline experiment measures that behaviour.
    absolute_pacing: bool = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if self.num_samples <= 0:
            raise ConfigurationError(
                f"num_samples must be positive, got {self.num_samples}"
            )
        if not 0.0 <= self.phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {self.phase}")
        overlap = set(self.chase_a) & set(self.chase_b)
        if overlap:
            raise ConfigurationError(
                "replacement sets A and B share addresses; Algorithm 2 "
                "requires them to be disjoint"
            )
        #: ``(tsc_at_measure_start, traversal_latency)`` per sample.
        self.samples: List[Tuple[int, int]] = []

    def run(self) -> OpGenerator:
        # Step 0 — initialisation phase: warm both replacement sets.  After
        # this, B's lines sit in the L1 target set and A's in L2, so the
        # first decode must traverse A.
        for line in self.chase_a:
            yield Load(line)
        for line in self.chase_b:
            yield Load(line)

        first_target = self.start_time + int(self.phase * self.period)
        t_last = yield SpinUntil(first_target)
        for index in range(self.num_samples):
            if self.desched and index in self.desched:
                yield Delay(self.desched[index])
            chase = self.chase_a if index % 2 == 0 else self.chase_b
            start = yield RdTSC()
            for line in chase:
                yield Load(line)
            end = yield RdTSC()
            self.samples.append((start, end - start))
            if self.absolute_pacing:
                t_last = yield SpinUntil(first_target + (index + 1) * self.period)
            else:
                t_last = yield SpinUntil(t_last + self.period)

    def latencies(self) -> List[int]:
        """Just the latency series, in sample order."""
        return [latency for _, latency in self.samples]
