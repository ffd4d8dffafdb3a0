"""Analysis: edit distance, BER evaluation, CDFs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BitErrorReport,
    align_by_preamble,
    bit_error_rate,
    edit_distance,
    empirical_cdf,
    evaluate_transmission,
    histogram,
    summarize_latencies,
)
from repro.common.errors import ConfigurationError, ProtocolError

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=32)


class TestEditDistance:
    def test_known_cases(self):
        assert edit_distance([1, 0, 1], [1, 1, 1]) == 1  # flip
        assert edit_distance([1, 0, 1], [1, 0]) == 1  # loss
        assert edit_distance([1, 0], [1, 0, 1]) == 1  # insertion
        assert edit_distance([], [1, 1]) == 2

    @given(bit_lists)
    def test_identity(self, bits):
        assert edit_distance(bits, bits) == 0

    @given(bit_lists, bit_lists)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(bit_lists, bit_lists, bit_lists)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(bit_lists, bit_lists)
    def test_bounded_by_longer_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))


class TestBitErrorRate:
    def test_perfect(self):
        assert bit_error_rate([1, 0, 1], [1, 0, 1]) == 0.0

    def test_one_flip(self):
        assert bit_error_rate([1, 0, 1, 0], [1, 1, 1, 0]) == 0.25

    def test_rejects_empty_sent(self):
        with pytest.raises(ProtocolError):
            bit_error_rate([], [1])


class TestPreambleAlignment:
    def test_finds_shifted_preamble(self):
        preamble = [1, 0, 1, 0]
        received = [0, 0] + preamble + [1, 1, 1]
        assert align_by_preamble(received, preamble, max_offset=4) == 2

    def test_prefers_smallest_offset_on_tie(self):
        assert align_by_preamble([1, 1, 1, 1], [1, 1], max_offset=2) == 0

    def test_rejects_empty_preamble(self):
        with pytest.raises(ProtocolError):
            align_by_preamble([1], [], 1)

    def test_rejects_negative_offset(self):
        with pytest.raises(ProtocolError):
            align_by_preamble([1], [1], -1)


class TestEvaluateTransmission:
    def test_error_free(self):
        sent = [1, 0] * 8 + [1, 1, 0, 0]
        report = evaluate_transmission(sent, sent + [0, 1], 16, alignment_slack=2)
        assert report.ber == 0.0
        assert isinstance(report, BitErrorReport)

    def test_absorbs_leading_garbage(self):
        sent = [1, 0] * 8 + [1, 1, 0, 1]
        received = [0, 0, 0] + sent
        report = evaluate_transmission(sent, received, 16, alignment_slack=4)
        assert report.offset == 3
        assert report.ber == 0.0

    def test_rejects_preamble_longer_than_message(self):
        with pytest.raises(ProtocolError):
            evaluate_transmission([1, 0], [1, 0], 5)

    def test_str_mentions_ber(self):
        report = evaluate_transmission([1, 0], [1, 0], 0)
        assert "BER" in str(report)


class TestCdf:
    def test_empirical_cdf_monotone(self):
        points = empirical_cdf([3.0, 1.0, 2.0, 2.0])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_duplicates_collapse(self):
        points = empirical_cdf([1.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(2 / 3)), (2.0, 1.0)]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])

    def test_histogram(self):
        counts = histogram([1.0, 1.5, 2.0], bin_width=1.0)
        assert counts == {1.0: 2, 2.0: 1}

    def test_histogram_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            histogram([1.0], bin_width=0)

    def test_summary(self):
        summary = summarize_latencies([10.0, 20.0, 30.0, 40.0])
        assert summary.minimum == 10.0
        assert summary.maximum == 40.0
        assert summary.median == 25.0
        assert summary.count == 4
        assert "med" in str(summary)

