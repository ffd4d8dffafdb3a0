"""Forward error correction over the covert channel.

Section 5 of the paper closes with: "We note that more complex encoding
mechanisms may achieve higher information transmission rates, but our
goal is to illustrate a way for senders to achieve higher bandwidths."
This module follows that thread with the classic code an attacker would
actually deploy: :class:`HammingCode`, Hamming(7,4), four data bits per
seven channel bits with single-error correction per block, the standard
choice when the raw BER is a few percent (exactly the channel's
high-rate regime).

It operates on bit lists, composing with any symbol codec: encode the
message, send the codeword bits through the channel, decode what arrives.
The code corrects *flips*; insertions/losses (preemption bursts) defeat
the block framing, which is why the experiments pair coding with the
preamble alignment already in place.

For *detection* (rather than correction) the module also provides a
bitwise CRC (:func:`crc_bits`): the self-healing frame format in
:mod:`repro.channels.wb.framing` protects each frame with a CRC-8 over
its sequence number and payload, so a frame corrupted beyond the FEC's
correction radius is rejected instead of delivered.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.errors import ConfigurationError, ProtocolError

#: CRC-8/ATM generator polynomial (x^8 + x^2 + x + 1, the x^8 implicit).
CRC8_POLY = 0x07


def crc_bits(bits: Sequence[int], width: int = 8, poly: int = CRC8_POLY) -> List[int]:
    """CRC remainder of ``bits``, MSB-first, as a ``width``-bit list.

    Plain long-division CRC with a zero initial register — table-driven
    variants buy nothing at frame sizes of a few dozen bits, and the
    bitwise form is the specification.
    """
    if width <= 0:
        raise ConfigurationError(f"CRC width must be positive, got {width}")
    if not 0 < poly < (1 << width):
        raise ConfigurationError(
            f"CRC polynomial {poly:#x} out of range for width {width}"
        )
    mask = (1 << width) - 1
    register = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ProtocolError(f"bits must be 0/1, got {bit!r}")
        top = (register >> (width - 1)) & 1
        register = (register << 1) & mask
        if top ^ bit:
            register ^= poly
    return [(register >> shift) & 1 for shift in range(width - 1, -1, -1)]


class HammingCode:
    """Hamming(7,4): single-error correction per 7-bit block.

    Bit layout (1-indexed positions): parity at 1, 2, 4; data at
    3, 5, 6, 7 — the classic arrangement, so the syndrome *is* the error
    position.
    """

    _DATA_POSITIONS = (3, 5, 6, 7)
    _PARITY_POSITIONS = (1, 2, 4)

    #: Data bits per block.
    data_bits = 4
    #: Channel bits per block.
    code_bits = 7
    #: Code rate (data bits per channel bit).
    rate = data_bits / code_bits

    # ------------------------------------------------------------------
    # Whole-message helpers
    # ------------------------------------------------------------------
    def encode(self, bits: Sequence[int]) -> List[int]:
        """Encode a whole message (length must be a multiple of data_bits)."""
        if len(bits) % self.data_bits:
            raise ProtocolError(
                f"message of {len(bits)} bits is not a whole number of "
                f"{self.data_bits}-bit blocks"
            )
        out: List[int] = []
        for start in range(0, len(bits), self.data_bits):
            out.extend(self.encode_block(bits[start : start + self.data_bits]))
        return out

    def decode(self, bits: Sequence[int]) -> List[int]:
        """Decode a whole received stream (truncates a ragged tail block)."""
        out: List[int] = []
        usable = len(bits) - (len(bits) % self.code_bits)
        for start in range(0, usable, self.code_bits):
            out.extend(self.decode_block(bits[start : start + self.code_bits]))
        return out

    # ------------------------------------------------------------------
    # One block
    # ------------------------------------------------------------------
    def encode_block(self, block: Sequence[int]) -> List[int]:
        if len(block) != 4:
            raise ProtocolError(f"Hamming(7,4) block needs 4 bits, got {len(block)}")
        word = [0] * 8  # 1-indexed
        for position, bit in zip(self._DATA_POSITIONS, block):
            if bit not in (0, 1):
                raise ProtocolError(f"bits must be 0/1, got {bit!r}")
            word[position] = bit
        for parity in self._PARITY_POSITIONS:
            value = 0
            for position in range(1, 8):
                if position != parity and position & parity:
                    value ^= word[position]
            word[parity] = value
        return word[1:]

    def decode_block(self, block: Sequence[int]) -> List[int]:
        if len(block) != 7:
            raise ProtocolError(f"Hamming(7,4) block needs 7 bits, got {len(block)}")
        word = [0] + [1 if bit else 0 for bit in block]  # 1-indexed
        syndrome = 0
        for parity in self._PARITY_POSITIONS:
            value = 0
            for position in range(1, 8):
                if position & parity:
                    value ^= word[position]
            if value:
                syndrome |= parity
        if syndrome:  # single-bit error at position `syndrome`
            word[syndrome] ^= 1
        return [word[position] for position in self._DATA_POSITIONS]
