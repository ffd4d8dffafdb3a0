"""Unit conversions: the paper's cycle/rate arithmetic must be exact."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import (
    CPU_FREQUENCY_HZ,
    cycles_to_kbps,
    cycles_to_seconds,
    kbps_to_period_cycles,
)


class TestCyclesToKbps:
    def test_paper_anchor_400kbps(self):
        # Figure 5: Ts = 5500 cycles at 2.2 GHz is 400 Kbps.
        assert cycles_to_kbps(5500) == pytest.approx(400.0)

    def test_paper_anchor_1375kbps(self):
        # Figure 6: Ts = 1600 is the paper's 1375 Kbps point.
        assert cycles_to_kbps(1600) == pytest.approx(1375.0)

    def test_paper_anchor_4400kbps_multibit(self):
        # Figure 8: two-bit symbols at Ts = 1000 give the headline 4400 Kbps.
        assert cycles_to_kbps(1000, bits_per_symbol=2) == pytest.approx(4400.0)

    def test_paper_anchor_2200kbps(self):
        assert cycles_to_kbps(1000) == pytest.approx(2200.0)

    def test_rejects_zero_period(self):
        with pytest.raises(ConfigurationError):
            cycles_to_kbps(0)

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            cycles_to_kbps(1000, bits_per_symbol=0)


class TestKbpsToPeriod:
    def test_inverse_of_cycles_to_kbps(self):
        for period in (800, 1000, 1600, 2200, 5500, 11000):
            rate = cycles_to_kbps(period)
            assert kbps_to_period_cycles(rate) == period

    def test_multibit_inverse(self):
        assert kbps_to_period_cycles(4400, bits_per_symbol=2) == 1000

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            kbps_to_period_cycles(0)


class TestTimeConversions:
    def test_one_second_roundtrip(self):
        assert cycles_to_seconds(CPU_FREQUENCY_HZ) == pytest.approx(1.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            cycles_to_seconds(100, frequency_hz=0)
