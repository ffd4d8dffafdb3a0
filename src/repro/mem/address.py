"""Address bit-field layout for set-associative caches.

For the paper's L1 (64 sets, 64-byte lines) virtual-address bits 0-5 are the
line offset and bits 6-11 select the set; everything above is the tag.  The
same layout object also serves the (physically indexed) L2 and LLC, just with
more sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class AddressLayout:
    """Split addresses into (tag, set index, line offset) fields.

    Parameters
    ----------
    line_size:
        Cache line size in bytes; must be a power of two.
    num_sets:
        Number of sets in the cache; must be a power of two.
    """

    line_size: int = 64
    num_sets: int = 64

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_size):
            raise ConfigurationError(
                f"line_size must be a power of two, got {self.line_size}"
            )
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"num_sets must be a power of two, got {self.num_sets}"
            )

    @property
    def offset_bits(self) -> int:
        """Number of low-order bits addressing bytes within a line."""
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of bits selecting the cache set."""
        return self.num_sets.bit_length() - 1

    def set_index(self, address: int) -> int:
        """Cache-set index of ``address``."""
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        """Tag bits of ``address`` (everything above the index)."""
        return address >> (self.offset_bits + self.index_bits)

    def line_address(self, address: int) -> int:
        """``address`` rounded down to the start of its cache line."""
        return address & ~(self.line_size - 1)

    def compose(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Build an address from its fields (inverse of the extractors).

        >>> layout = AddressLayout(line_size=64, num_sets=64)
        >>> addr = layout.compose(tag=3, set_index=17, offset=8)
        >>> layout.tag(addr), layout.set_index(addr), addr - layout.line_address(addr)
        (3, 17, 8)
        """
        if not 0 <= set_index < self.num_sets:
            raise ConfigurationError(
                f"set_index {set_index} out of range [0, {self.num_sets})"
            )
        if not 0 <= offset < self.line_size:
            raise ConfigurationError(
                f"offset {offset} out of range [0, {self.line_size})"
            )
        if tag < 0:
            raise ConfigurationError(f"tag must be non-negative, got {tag}")
        return (
            (tag << (self.offset_bits + self.index_bits))
            | (set_index << self.offset_bits)
            | offset
        )

    def stride_between_conflicts(self) -> int:
        """Distance in bytes between two addresses mapping to the same set.

        For the paper's L1 this is 4096 bytes: an array the size of the cache
        (32 KB) contains exactly eight lines per set.
        """
        return self.line_size * self.num_sets
