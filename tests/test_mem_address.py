"""Address layout: the VIPT bit-slicing the attack depends on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.mem.address import AddressLayout


@pytest.fixture
def l1_layout():
    """The paper's L1: 64 sets x 64-byte lines."""
    return AddressLayout(line_size=64, num_sets=64)


class TestFieldWidths:
    def test_paper_l1_bit_positions(self, l1_layout):
        # Section 4: "the 0-5 bits ... are the line offset, and the 6-11
        # bits decide the cache set".
        assert l1_layout.offset_bits == 6
        assert l1_layout.index_bits == 6

    def test_stride_between_conflicts_is_4k(self, l1_layout):
        assert l1_layout.stride_between_conflicts() == 4096

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            AddressLayout(line_size=48, num_sets=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            AddressLayout(line_size=64, num_sets=63)


class TestExtraction:
    def test_known_address(self, l1_layout):
        address = (3 << 12) | (17 << 6) | 5
        assert l1_layout.tag(address) == 3
        assert l1_layout.set_index(address) == 17

    def test_line_address_masks_offset(self, l1_layout):
        assert l1_layout.line_address(0x12345) == 0x12340

    def test_same_stride_same_set(self, l1_layout):
        base = 0x40000
        stride = l1_layout.stride_between_conflicts()
        assert l1_layout.set_index(base) == l1_layout.set_index(base + stride)
        assert l1_layout.tag(base) != l1_layout.tag(base + stride)


class TestCompose:
    @given(
        tag=st.integers(min_value=0, max_value=2**20),
        set_index=st.integers(min_value=0, max_value=63),
        offset=st.integers(min_value=0, max_value=63),
    )
    def test_roundtrip(self, tag, set_index, offset):
        layout = AddressLayout(line_size=64, num_sets=64)
        address = layout.compose(tag, set_index, offset)
        assert layout.tag(address) == tag
        assert layout.set_index(address) == set_index
        assert address - layout.line_address(address) == offset

    def test_rejects_out_of_range_set(self, l1_layout):
        with pytest.raises(ConfigurationError):
            l1_layout.compose(0, 64)

    def test_rejects_out_of_range_offset(self, l1_layout):
        with pytest.raises(ConfigurationError):
            l1_layout.compose(0, 0, 64)

    def test_rejects_negative_tag(self, l1_layout):
        with pytest.raises(ConfigurationError):
            l1_layout.compose(-1, 0)
