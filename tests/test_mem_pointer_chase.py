"""Pointer-chase list structure (the Listing 1 measurement vehicle)."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.mem.pointer_chase import PointerChaseList


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PointerChaseList(order=[])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            PointerChaseList(order=[0x40, 0x40])

    def test_from_lines_permutes(self):
        lines = [i * 0x1000 for i in range(16)]
        chase = PointerChaseList.from_lines(lines, rng=random.Random(0))
        assert sorted(chase.order) == lines
        assert chase.order != lines  # permuted with high probability

    def test_from_lines_no_permute(self):
        lines = [i * 0x1000 for i in range(8)]
        chase = PointerChaseList.from_lines(lines, permute=False)
        assert chase.order == lines

    def test_does_not_mutate_input(self):
        lines = [i * 0x1000 for i in range(8)]
        snapshot = list(lines)
        PointerChaseList.from_lines(lines, rng=random.Random(1))
        assert lines == snapshot


class TestTraversal:
    def test_len_and_iter(self):
        chase = PointerChaseList(order=[0x100, 0x200])
        assert len(chase) == 2
        assert list(chase) == [0x100, 0x200]
