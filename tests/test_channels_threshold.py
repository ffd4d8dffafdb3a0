"""Threshold decoder calibration and classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.channels.threshold import ThresholdDecoder


def simple_decoder():
    return ThresholdDecoder.calibrate(
        {0: [100.0, 102.0, 101.0], 4: [140.0, 144.0], 8: [190.0, 186.0]}
    )


class TestCalibration:
    def test_thresholds_are_midpoints(self):
        decoder = simple_decoder()
        assert decoder.thresholds[0] == pytest.approx((101 + 142) / 2)
        assert decoder.thresholds[1] == pytest.approx((142 + 188) / 2)

    def test_levels_sorted(self):
        assert list(simple_decoder().levels) == [0, 4, 8]

    def test_rejects_single_level(self):
        with pytest.raises(ConfigurationError):
            ThresholdDecoder.calibrate({0: [1.0]})

    def test_rejects_empty_samples(self):
        with pytest.raises(ConfigurationError):
            ThresholdDecoder.calibrate({0: [], 1: [5.0]})

    def test_rejects_unseparated_medians(self):
        # The no-signal case (e.g. a write-through cache): medians overlap.
        with pytest.raises(ConfigurationError):
            ThresholdDecoder.calibrate({0: [100.0], 1: [101.0]})

    def test_rejects_inverted_medians(self):
        with pytest.raises(ConfigurationError):
            ThresholdDecoder.calibrate({0: [200.0], 1: [100.0]})

    def test_min_separation_configurable(self):
        decoder = ThresholdDecoder.calibrate(
            {0: [100.0], 1: [101.5]}, min_separation=1.0
        )
        assert decoder.classify(99.0) == 0


class TestClassify:
    def test_band_membership(self):
        decoder = simple_decoder()
        assert decoder.classify(95) == 0
        assert decoder.classify(120) == 0
        assert decoder.classify(122) == 4
        assert decoder.classify(160) == 4
        assert decoder.classify(170) == 8
        assert decoder.classify(500) == 8

    def test_classify_many(self):
        decoder = simple_decoder()
        assert decoder.classify_many([95, 150, 200]) == [0, 4, 8]

    def test_separation(self):
        assert simple_decoder().separation() == pytest.approx(41.0)

    def test_describe_mentions_levels(self):
        text = simple_decoder().describe()
        assert "d=0" in text and "d=8" in text

    @given(st.floats(min_value=0, max_value=1000, allow_nan=False))
    def test_classification_is_total(self, latency):
        assert simple_decoder().classify(latency) in (0, 4, 8)


class TestValidation:
    def test_threshold_count_must_match(self):
        with pytest.raises(ConfigurationError):
            ThresholdDecoder(levels=(0, 1, 2), thresholds=(10.0,), medians=(1, 2, 3))

    def test_thresholds_must_ascend(self):
        with pytest.raises(ConfigurationError):
            ThresholdDecoder(levels=(0, 1, 2), thresholds=(20.0, 10.0), medians=(1, 2, 3))
