"""Bit-sequence helpers, including Hypothesis round-trip properties."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bits import (
    bits_to_int,
    bits_to_string,
    chunk_bits,
    flatten,
    hamming_distance,
    int_to_bits,
    random_bits,
    validate_bits,
)
from repro.common.errors import ProtocolError

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


class TestRandomBits:
    def test_length(self):
        assert len(random_bits(100, random.Random(0))) == 100

    def test_deterministic_for_seed(self):
        assert random_bits(64, random.Random(5)) == random_bits(64, random.Random(5))

    def test_contains_both_values_eventually(self):
        bits = random_bits(256, random.Random(1))
        assert set(bits) == {0, 1}

    def test_rejects_negative_length(self):
        with pytest.raises(ProtocolError):
            random_bits(-1, random.Random(0))


class TestValidation:
    def test_accepts_binary(self):
        validate_bits([0, 1, 1, 0])

    def test_rejects_other_ints(self):
        with pytest.raises(ProtocolError):
            validate_bits([0, 2])

    def test_rejects_strings(self):
        with pytest.raises(ProtocolError):
            validate_bits(["1"])


class TestStringRoundTrip:
    @given(bit_lists)
    def test_roundtrip(self, bits):
        text = bits_to_string(bits)
        assert len(text) == len(bits)
        assert [int(char) for char in text] == bits


class TestIntRoundTrip:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 32)) == value

    def test_known_value(self):
        assert bits_to_int([1, 0, 1]) == 5
        assert int_to_bits(5, 4) == [0, 1, 0, 1]

    def test_rejects_overflow(self):
        with pytest.raises(ProtocolError):
            int_to_bits(16, 4)

    def test_rejects_negative(self):
        with pytest.raises(ProtocolError):
            int_to_bits(-1, 4)


class TestChunking:
    def test_chunks(self):
        assert list(chunk_bits([1, 0, 1, 1], 2)) == [[1, 0], [1, 1]]

    def test_rejects_ragged(self):
        with pytest.raises(ProtocolError):
            list(chunk_bits([1, 0, 1], 2))

    def test_rejects_zero_chunk(self):
        with pytest.raises(ProtocolError):
            list(chunk_bits([1, 0], 0))

    @given(bit_lists.filter(lambda b: len(b) % 4 == 0))
    def test_flatten_inverts_chunk(self, bits):
        assert flatten(chunk_bits(bits, 4)) == bits


class TestHamming:
    def test_known(self):
        assert hamming_distance([1, 0, 1], [1, 1, 1]) == 1

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ProtocolError):
            hamming_distance([1], [1, 0])

    @given(bit_lists)
    def test_self_distance_zero(self, bits):
        assert hamming_distance(bits, bits) == 0
