"""Message framing, scoring and the run result every covert channel shares.

Sections 5-7 score the WB channel and the channels it is compared
against (LRU, Prime+Probe) the same way: a message opens with a 16-bit
preamble, the receiver's raw bits are aligned on it, and the error rate
is the Wagner-Fischer edit distance over the message.  Every channel
config inherits :class:`ChannelFraming` (the message and its pacing),
every run function ends in :func:`score_run`, and every channel returns
a :class:`ChannelRunResult`.  The channel modules keep only their line
sets, programs and decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ber import DEFAULT_PREAMBLE, evaluate_transmission
from repro.channels.threshold import ThresholdDecoder
from repro.common.bits import random_bits
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import derive_rng, ensure_rng
from repro.common.units import cycles_to_kbps
from repro.cpu.noise import SchedulerNoise
from repro.cpu.perf_counters import PerfReport


@dataclass
class ChannelFraming:
    """The message and pacing fields every channel config shares.

    The defaults mirror the paper's baseline experiment: 128-bit messages
    opening with a fixed 16-bit preamble, one symbol every 5500 cycles.
    """

    period_cycles: int = 5500
    message_bits: int = 128
    #: An explicit message (preamble included); ``None`` draws a random
    #: payload of ``message_bits - len(preamble)`` bits from the seed.
    message: Optional[Sequence[int]] = None
    preamble: Sequence[int] = field(default_factory=lambda: list(DEFAULT_PREAMBLE))
    #: Extra receiver samples beyond the symbol count, absorbed by the
    #: preamble alignment search (bit insertions push data rightward).
    alignment_slack_symbols: int = 4
    #: Protocol epoch: late enough that both parties finish their warm-up
    #: (cold DRAM fills of their line sets) before symbol 0 opens.
    start_time: int = 30000
    seed: int = 0
    scheduler_noise: Optional[SchedulerNoise] = None

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise ConfigurationError(
                f"period_cycles must be positive, got {self.period_cycles}"
            )

    @property
    def bits_per_symbol(self) -> int:
        """Message bits carried by one channel symbol."""
        return 1

    def resolve_message(self) -> List[int]:
        """The full bit message: preamble followed by payload."""
        preamble = list(self.preamble)
        if self.message is not None:
            message = list(self.message)
            if message[: len(preamble)] != preamble:
                raise ProtocolError(
                    "explicit message must start with the configured preamble"
                )
        else:
            payload_len = self.message_bits - len(preamble)
            if payload_len < 0:
                raise ConfigurationError(
                    f"message_bits {self.message_bits} shorter than the "
                    f"{len(preamble)}-bit preamble"
                )
            rng = derive_rng(ensure_rng(self.seed), "message")
            message = preamble + random_bits(payload_len, rng)
        if len(message) % self.bits_per_symbol:
            raise ProtocolError(
                f"message of {len(message)} bits is not a whole number of "
                f"{self.bits_per_symbol}-bit symbols"
            )
        return message

    @property
    def rate_kbps(self) -> float:
        """Nominal transmission rate of this configuration."""
        return cycles_to_kbps(self.period_cycles, self.bits_per_symbol)


@dataclass(frozen=True)
class ChannelRunResult:
    """Everything measured during one covert-channel run."""

    #: Which channel ran (``WB channel``, ``L2 WB channel``, ``LRU``, ...).
    channel: str
    sent_bits: Tuple[int, ...]
    received_bits: Tuple[int, ...]
    bit_error_rate: float
    errors: int
    alignment_offset: int
    rate_kbps: float
    period_cycles: int
    sender_perf: PerfReport
    receiver_perf: PerfReport
    elapsed_cycles: float
    #: ``(tsc, latency)`` receiver samples, in order; empty for channels
    #: whose receiver does not time a traversal.
    samples: Tuple[Tuple[int, int], ...] = ()
    #: The threshold decoder used; ``None`` for fixed-threshold channels.
    decoder: Optional[ThresholdDecoder] = None
    #: Injected-fault event counts (``FaultSchedule.summary()``); ``None``
    #: for fault-free runs.
    fault_summary: Optional[Dict[str, object]] = None

    @property
    def payload_intact(self) -> bool:
        """True when the transmission was error-free."""
        return self.errors == 0

    def __str__(self) -> str:
        return (
            f"{self.channel} @ {self.rate_kbps:.0f} Kbps: BER "
            f"{self.bit_error_rate:.2%} over {len(self.sent_bits)} bits"
        )


def score_run(
    config: ChannelFraming,
    message: Sequence[int],
    received_raw: Sequence[int],
    *,
    channel: str,
    sender_perf: PerfReport,
    receiver_perf: PerfReport,
    elapsed_cycles: float,
    samples: Tuple[Tuple[int, int], ...] = (),
    decoder: Optional[ThresholdDecoder] = None,
    fault_summary: Optional[Dict[str, object]] = None,
) -> ChannelRunResult:
    """Align ``received_raw`` on the preamble and score it against ``message``."""
    report = evaluate_transmission(
        sent=message,
        received_raw=received_raw,
        preamble_length=len(config.preamble),
        alignment_slack=config.alignment_slack_symbols * config.bits_per_symbol,
    )
    return ChannelRunResult(
        channel=channel,
        sent_bits=tuple(message),
        received_bits=tuple(report.received),
        bit_error_rate=report.ber,
        errors=report.errors,
        alignment_offset=report.offset,
        rate_kbps=config.rate_kbps,
        period_cycles=config.period_cycles,
        sender_perf=sender_perf,
        receiver_perf=receiver_perf,
        elapsed_cycles=elapsed_cycles,
        samples=samples,
        decoder=decoder,
        fault_summary=fault_summary,
    )
