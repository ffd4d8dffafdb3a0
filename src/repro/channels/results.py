"""Shared result type for the baseline channels.

The WB channel has its richer :class:`~repro.channels.wb.protocol.ChannelRunResult`;
the baselines (LRU, Prime+Probe) share this simpler record, which is all
the comparison experiments of Sections 6-7 need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.perf_counters import PerfReport


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of one baseline-channel transmission."""

    channel: str
    sent_bits: Tuple[int, ...]
    received_bits: Tuple[int, ...]
    bit_error_rate: float
    errors: int
    rate_kbps: float
    period_cycles: int
    sender_perf: Optional[PerfReport]
    receiver_perf: Optional[PerfReport]
    elapsed_cycles: float

    def __str__(self) -> str:
        return (
            f"{self.channel} @ {self.rate_kbps:.0f} Kbps: BER "
            f"{self.bit_error_rate:.2%} over {len(self.sent_bits)} bits"
        )
