"""Self-healing frame format for the WB channel.

The raw protocol sends one long bit stream and relies on a single
preamble alignment at the start — one symbol slip mid-message corrupts
everything after it.  This module chops the payload into small,
independently recoverable frames:

``[ sync | FEC( seq | payload | CRC-8(seq+payload) ) ]``

* **sync** — an 8-bit word with low autocorrelation (Barker-7 padded),
  matched with a Hamming-distance tolerance so a bit flip inside the
  sync itself does not lose the frame;
* **seq** — the frame's sequence number, so frames identify themselves
  and retransmissions/duplications deduplicate;
* **CRC-8** — rejects frames corrupted beyond the FEC's radius;
* **FEC** — :data:`FRAME_CODE`, Hamming(7,4) over the body, correcting
  one flip per 7-bit block.

:func:`scan_frames` is the receiver half: it slides over the decoded
bit stream, accepts CRC-valid frames wherever they are found, and on
any failure advances one bit and rescans — so a slip, drop or burst
costs the frames it touched, not the rest of the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.bits import bits_to_int, hamming_distance, int_to_bits
from repro.common.errors import ConfigurationError, ProtocolError
from repro.channels.coding import HammingCode, crc_bits

#: Barker-7 (+++--+-) zero-padded to a byte: the standard low-sidelobe
#: sync choice, so a shifted copy of the word rarely mimics the word.
DEFAULT_SYNC: Tuple[int, ...] = (1, 1, 1, 0, 0, 1, 0, 0)

#: FEC over every frame body (seq + payload + CRC).
FRAME_CODE = HammingCode()


@dataclass(frozen=True)
class FrameConfig:
    """Geometry of one frame."""

    payload_bits: int = 8
    seq_bits: int = 4
    crc_width: int = 8
    sync: Tuple[int, ...] = DEFAULT_SYNC
    #: Accept a sync match up to this Hamming distance from the word.
    sync_tolerance: int = 1

    def __post_init__(self) -> None:
        if self.payload_bits <= 0 or self.seq_bits <= 0 or self.crc_width <= 0:
            raise ConfigurationError(
                "payload_bits, seq_bits and crc_width must be positive"
            )
        if not self.sync:
            raise ConfigurationError("sync word must be non-empty")
        if not 0 <= self.sync_tolerance < len(self.sync):
            raise ConfigurationError(
                f"sync_tolerance must be in [0, {len(self.sync)}), "
                f"got {self.sync_tolerance}"
            )
        if self.body_data_bits % FRAME_CODE.data_bits:
            raise ConfigurationError(
                f"frame body of {self.body_data_bits} bits is not a whole "
                f"number of {FRAME_CODE.data_bits}-bit FEC blocks"
            )

    @property
    def body_data_bits(self) -> int:
        """Pre-FEC body width: sequence number, payload, CRC."""
        return self.seq_bits + self.payload_bits + self.crc_width

    @property
    def body_code_bits(self) -> int:
        """Post-FEC body width on the channel."""
        return (
            self.body_data_bits // FRAME_CODE.data_bits
        ) * FRAME_CODE.code_bits

    @property
    def frame_bits(self) -> int:
        """Total channel bits per frame, sync included."""
        return len(self.sync) + self.body_code_bits

    @property
    def max_frames(self) -> int:
        """Distinct sequence numbers (payload capacity in frames)."""
        return 1 << self.seq_bits

    @property
    def max_payload_bits(self) -> int:
        """Largest payload one framed message can carry."""
        return self.max_frames * self.payload_bits

    def overhead(self) -> float:
        """Channel bits per payload bit (goodput denominator)."""
        return self.frame_bits / self.payload_bits


def encode_frame(config: FrameConfig, seq: int, payload: Sequence[int]) -> List[int]:
    """One frame's channel bits for ``payload`` at sequence ``seq``."""
    if not 0 <= seq < config.max_frames:
        raise ProtocolError(
            f"sequence number {seq} out of range [0, {config.max_frames})"
        )
    if len(payload) != config.payload_bits:
        raise ProtocolError(
            f"frame payload must be {config.payload_bits} bits, "
            f"got {len(payload)}"
        )
    body = int_to_bits(seq, config.seq_bits) + list(payload)
    body = body + crc_bits(body, width=config.crc_width)
    return list(config.sync) + FRAME_CODE.encode(body)


def encode_payload(
    config: FrameConfig, payload: Sequence[int]
) -> List[List[int]]:
    """Split ``payload`` into frames (the last one zero-padded).

    Returns one bit list per frame so callers (the ARQ loop) can
    retransmit individual frames.
    """
    if not payload:
        raise ProtocolError("cannot frame an empty payload")
    if len(payload) > config.max_payload_bits:
        raise ProtocolError(
            f"payload of {len(payload)} bits exceeds the "
            f"{config.seq_bits}-bit sequence space "
            f"({config.max_payload_bits} bits max)"
        )
    frames: List[List[int]] = []
    for seq, start in enumerate(range(0, len(payload), config.payload_bits)):
        chunk = list(payload[start : start + config.payload_bits])
        chunk += [0] * (config.payload_bits - len(chunk))
        frames.append(encode_frame(config, seq, chunk))
    return frames


@dataclass
class FrameScanResult:
    """What one pass of :func:`scan_frames` recovered."""

    #: CRC-valid frame payloads keyed by sequence number (first copy wins).
    payloads: Dict[int, List[int]]
    #: Sync candidates whose body failed the CRC.
    crc_failures: int
    #: Bit positions skipped hunting for the next sync (resync cost).
    resync_bits: int
    #: CRC-valid frames whose sequence number was already recovered.
    duplicates: int
    #: Bits of input consumed.
    scanned_bits: int

    @property
    def recovered(self) -> int:
        """Distinct frames recovered."""
        return len(self.payloads)


def scan_frames(config: FrameConfig, bits: Sequence[int]) -> FrameScanResult:
    """Recover every CRC-valid frame from a (possibly mangled) bit stream.

    The scanner is greedy: at each position it tests for a sync word
    (within ``sync_tolerance``); on a CRC-valid body it consumes the
    whole frame, otherwise it advances a single bit.  Slips and drops
    therefore desynchronise the scanner only until the next intact sync
    word — frames are lost one at a time, never "everything after the
    fault".
    """
    stream = list(bits)
    sync = list(config.sync)
    sync_len = len(sync)
    payloads: Dict[int, List[int]] = {}
    crc_failures = 0
    resync_bits = 0
    duplicates = 0
    position = 0
    while position + config.frame_bits <= len(stream):
        window = stream[position : position + sync_len]
        if hamming_distance(window, sync) > config.sync_tolerance:
            position += 1
            resync_bits += 1
            continue
        body = FRAME_CODE.decode(
            stream[position + sync_len : position + config.frame_bits]
        )
        seq = bits_to_int(body[: config.seq_bits])
        payload = body[config.seq_bits : config.seq_bits + config.payload_bits]
        checksum = body[config.seq_bits + config.payload_bits :]
        if checksum != crc_bits(body[: config.seq_bits + config.payload_bits],
                                width=config.crc_width):
            crc_failures += 1
            position += 1
            resync_bits += 1
            continue
        if seq in payloads:
            duplicates += 1
        else:
            payloads[seq] = payload
        position += config.frame_bits
    return FrameScanResult(
        payloads=payloads,
        crc_failures=crc_failures,
        resync_bits=resync_bits,
        duplicates=duplicates,
        scanned_bits=len(stream),
    )
