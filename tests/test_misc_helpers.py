"""Small helpers not covered elsewhere."""

import pytest

from repro.experiments.base import _format_cell
from repro.cache.line import CacheLine, EvictedLine


class TestFormatCell:
    def test_floats_compact(self):
        assert _format_cell(0.123456) == "0.1235"

    def test_ints_verbatim(self):
        assert _format_cell(12) == "12"

    def test_strings_verbatim(self):
        assert _format_cell("68.8%") == "68.8%"


class TestCacheLine:
    def test_defaults_invalid(self):
        line = CacheLine()
        assert not line.valid
        assert not line.dirty

    def test_invalidate_clears_everything(self):
        line = CacheLine(tag=5, valid=True, dirty=True, locked=True, owner=3)
        line.invalidate()
        assert not line.valid and not line.dirty and not line.locked
        assert line.owner is None

    def test_evicted_line_is_frozen(self):
        snapshot = EvictedLine(address=0x40, dirty=True, owner=1)
        with pytest.raises(AttributeError):
            snapshot.dirty = False
