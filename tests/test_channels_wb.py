"""End-to-end WB covert channel: calibration, protocol, integration."""

import pytest

from repro.channels import LRUChannelConfig, PrimeProbeConfig
from repro.channels.encoding import BinaryDirtyCodec, MultiBitDirtyCodec
from repro.channels.wb import (
    CrossCoreWBChannelConfig,
    L2WBChannelConfig,
    WBChannelConfig,
    calibrate_decoder,
    measure_latency_distributions,
    quick_channel_run,
    run_wb_channel,
)
from repro.common.errors import ConfigurationError, ProtocolError
from repro.cpu.noise import SchedulerNoise


class TestCalibration:
    def test_latency_bands_separated_by_writeback_penalty(self):
        samples = measure_latency_distributions(levels=[0, 1, 8], repetitions=30)
        import statistics

        med = {d: statistics.median(v) for d, v in samples.items()}
        # Figure 4: each dirty line adds roughly one write-back penalty.
        assert 8 <= med[1] - med[0] <= 15
        assert 70 <= med[8] - med[0] <= 105

    def test_bands_are_narrow(self):
        samples = measure_latency_distributions(levels=[0, 8], repetitions=30)
        for values in samples.values():
            assert max(values) - min(values) < 20

    def test_decoder_orders_levels(self):
        decoder = calibrate_decoder([0, 3, 5, 8], repetitions=20)
        assert list(decoder.levels) == [0, 3, 5, 8]
        assert decoder.separation() > 10

    def test_rejects_empty_levels(self):
        with pytest.raises(ConfigurationError):
            measure_latency_distributions(levels=[], repetitions=5)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigurationError):
            measure_latency_distributions(levels=[0, 1], repetitions=0)


class TestChannelRuns:
    def test_clean_run_is_error_free(self):
        result = run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=4),
                period_cycles=5500,
                message_bits=64,
                seed=11,
                scheduler_noise=SchedulerNoise.disabled(),
                receiver_phase=0.5,
            )
        )
        assert result.bit_error_rate == 0.0
        assert result.payload_intact

    def test_quick_channel_run(self):
        result = quick_channel_run(message_bits=32, period_cycles=5500, d=4, seed=2)
        assert result.rate_kbps == pytest.approx(400.0)
        assert result.bit_error_rate < 0.15

    def test_multibit_channel(self):
        result = run_wb_channel(
            WBChannelConfig(
                codec=MultiBitDirtyCodec(),
                period_cycles=4000,
                message_bits=64,
                seed=3,
                scheduler_noise=SchedulerNoise.disabled(),
                receiver_phase=0.5,
            )
        )
        assert result.rate_kbps == pytest.approx(1100.0)
        assert result.bit_error_rate < 0.1

    def test_deterministic_given_seed(self):
        config = dict(message_bits=64, period_cycles=5500, d=2, seed=9)
        first = quick_channel_run(**config)
        second = quick_channel_run(**config)
        assert first.received_bits == second.received_bits
        assert first.samples == second.samples

    def test_different_seeds_different_messages(self):
        first = quick_channel_run(message_bits=64, seed=1)
        second = quick_channel_run(message_bits=64, seed=2)
        assert first.sent_bits != second.sent_bits

    def test_samples_cover_all_symbols(self):
        result = quick_channel_run(message_bits=64, seed=4)
        assert len(result.samples) == 64 + 4  # alignment slack

    def test_perf_reports_attached(self):
        result = quick_channel_run(message_bits=32, seed=5)
        # The receiver traverses 10 lines per symbol; the sender stores at
        # most once per symbol: receiver load traffic dominates.
        assert result.receiver_perf.l1_accesses > result.sender_perf.l1_accesses

    def test_sender_stores_only_for_ones(self):
        result = quick_channel_run(message_bits=32, d=1, seed=6)
        ones = sum(result.sent_bits)
        # warm-up loads + one store per 1-bit
        expected_accesses = ones + 1  # 1 conflict line warmed once
        assert result.sender_perf.l1_accesses == expected_accesses


#: Every channel config inherits the one message framing.
FRAMED_CONFIGS = [
    WBChannelConfig,
    L2WBChannelConfig,
    CrossCoreWBChannelConfig,
    LRUChannelConfig,
    PrimeProbeConfig,
]
#: The configs whose symbols carry a codec's bits.
CODEC_CONFIGS = [WBChannelConfig, L2WBChannelConfig, CrossCoreWBChannelConfig]


class TestConfigValidation:
    @pytest.mark.parametrize("config_cls", FRAMED_CONFIGS)
    def test_message_must_start_with_preamble(self, config_cls):
        with pytest.raises(ProtocolError):
            config_cls(message=[0] * 32).resolve_message()

    @pytest.mark.parametrize("config_cls", FRAMED_CONFIGS)
    def test_explicit_message_accepted(self, config_cls):
        preamble = [1, 0] * 8
        message = preamble + [1] * 16
        config = config_cls(message=message)
        assert config.resolve_message() == message

    @pytest.mark.parametrize("config_cls", FRAMED_CONFIGS)
    def test_message_bits_shorter_than_preamble(self, config_cls):
        with pytest.raises(ConfigurationError):
            config_cls(message_bits=8).resolve_message()

    @pytest.mark.parametrize("config_cls", CODEC_CONFIGS)
    def test_symbol_alignment_enforced(self, config_cls):
        with pytest.raises(ProtocolError):
            config_cls(
                codec=MultiBitDirtyCodec(), message_bits=33
            ).resolve_message()

    def test_rate_property(self):
        config = WBChannelConfig(period_cycles=1600)
        assert config.rate_kbps == pytest.approx(1375.0)

    def test_bad_target_set_rejected(self):
        with pytest.raises(ConfigurationError):
            run_wb_channel(WBChannelConfig(target_set=64, message_bits=32))


class TestResultRendering:
    def test_str_mentions_rate_and_ber(self):
        result = quick_channel_run(message_bits=32, seed=7)
        text = str(result)
        assert text.startswith("WB channel @")
        assert "Kbps" in text and "BER" in text
