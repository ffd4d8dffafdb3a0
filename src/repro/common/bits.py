"""Helpers for bit sequences used by the covert-channel protocols.

Bit sequences are represented as ``list[int]`` whose elements are 0 or 1.
This is deliberately the simplest representation that works: messages in the
paper are at most a few hundred bits, and clarity beats packing here.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Sequence

from repro.common.errors import ProtocolError


def random_bits(length: int, rng: random.Random) -> List[int]:
    """Return ``length`` uniformly random bits drawn from ``rng``."""
    if length < 0:
        raise ProtocolError(f"length must be non-negative, got {length}")
    return [rng.randrange(2) for _ in range(length)]


def validate_bits(bits: Sequence[int]) -> None:
    """Raise :class:`ProtocolError` unless every element is 0 or 1."""
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ProtocolError(f"bit {index} is {bit!r}, expected 0 or 1")


def bits_to_string(bits: Sequence[int]) -> str:
    """Render a bit sequence as a compact ``'0101...'`` string."""
    validate_bits(bits)
    return "".join(str(bit) for bit in bits)


def bits_to_int(bits: Sequence[int]) -> int:
    """Interpret a bit sequence as a big-endian unsigned integer.

    >>> bits_to_int([1, 0, 1])
    5
    """
    validate_bits(bits)
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def int_to_bits(value: int, width: int) -> List[int]:
    """Big-endian fixed-width bit expansion of ``value``.

    >>> int_to_bits(5, 4)
    [0, 1, 0, 1]
    """
    if value < 0:
        raise ProtocolError(f"value must be non-negative, got {value}")
    if width < 0:
        raise ProtocolError(f"width must be non-negative, got {width}")
    if value >= (1 << width):
        raise ProtocolError(f"value {value} does not fit in {width} bits")
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def chunk_bits(bits: Sequence[int], chunk_size: int) -> Iterator[List[int]]:
    """Yield consecutive ``chunk_size``-wide slices of ``bits``.

    The message length must be a multiple of the chunk size; multi-bit
    encodings in the paper always send whole symbols.
    """
    if chunk_size <= 0:
        raise ProtocolError(f"chunk_size must be positive, got {chunk_size}")
    if len(bits) % chunk_size != 0:
        raise ProtocolError(
            f"message of {len(bits)} bits is not a whole number of "
            f"{chunk_size}-bit symbols"
        )
    for start in range(0, len(bits), chunk_size):
        yield list(bits[start : start + chunk_size])


def hamming_distance(first: Sequence[int], second: Sequence[int]) -> int:
    """Number of positions where two equal-length bit sequences differ."""
    if len(first) != len(second):
        raise ProtocolError(
            f"sequences differ in length ({len(first)} vs {len(second)}); "
            "use edit distance for unequal lengths"
        )
    return sum(1 for a, b in zip(first, second) if a != b)


def flatten(groups: Iterable[Sequence[int]]) -> List[int]:
    """Concatenate an iterable of bit groups into one bit list."""
    result: List[int] = []
    for group in groups:
        result.extend(group)
    return result
