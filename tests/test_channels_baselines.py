"""Baseline channels: LRU and Prime+Probe."""

import pytest

from repro.channels import (
    LRUChannelConfig,
    PrimeProbeConfig,
    run_lru_channel,
    run_prime_probe_channel,
)
from repro.channels.wb import (
    CrossCoreWBChannelConfig,
    L2WBChannelConfig,
    WBChannelConfig,
)
from repro.cpu.noise import SchedulerNoise

QUIET = dict(message_bits=48, scheduler_noise=SchedulerNoise.disabled(), seed=3)


class TestLRUChannel:
    def test_transmits_on_true_lru(self):
        result = run_lru_channel(
            LRUChannelConfig(hierarchy_overrides={"l1_policy": "lru"}, **QUIET)
        )
        assert result.bit_error_rate == 0.0

    def test_plru_degrades_but_works(self):
        # The paper: "commercial processors often adopt the PLRU policy
        # ... which also has an impact on the LRU channel".
        result = run_lru_channel(LRUChannelConfig(**QUIET))
        assert result.bit_error_rate < 0.25

    def test_channel_label(self):
        result = run_lru_channel(
            LRUChannelConfig(hierarchy_overrides={"l1_policy": "lru"}, **QUIET)
        )
        assert result.channel == "LRU"
        assert str(result).startswith("LRU @")


class TestPrimeProbe:
    def test_transmits(self):
        result = run_prime_probe_channel(PrimeProbeConfig(**QUIET))
        assert result.bit_error_rate < 0.1

    def test_fails_under_random_replacement(self):
        # Section 6.1: "in the Prime+Probe attack, when the processor uses
        # the random replacement policy, it is difficult for the receiver
        # to completely fill the target set".
        result = run_prime_probe_channel(
            PrimeProbeConfig(hierarchy_overrides={"l1_policy": "random"}, **QUIET)
        )
        assert result.bit_error_rate > 0.15

    def test_perf_reports(self):
        result = run_prime_probe_channel(PrimeProbeConfig(**QUIET))
        assert result.receiver_perf.l1_accesses > 0

    def test_channel_label(self):
        result = run_prime_probe_channel(PrimeProbeConfig(**QUIET))
        assert result.channel == "Prime+Probe"
        assert str(result).startswith("Prime+Probe @")


class TestCommonBehaviour:
    @pytest.mark.parametrize(
        "runner,config_cls",
        [
            (run_lru_channel, LRUChannelConfig),
            (run_prime_probe_channel, PrimeProbeConfig),
        ],
    )
    def test_deterministic_given_seed(self, runner, config_cls):
        first = runner(config_cls(**QUIET))
        second = runner(config_cls(**QUIET))
        assert first.received_bits == second.received_bits

    @pytest.mark.parametrize(
        "config_cls",
        [
            LRUChannelConfig,
            PrimeProbeConfig,
            WBChannelConfig,
            L2WBChannelConfig,
            CrossCoreWBChannelConfig,
        ],
    )
    def test_rate_property(self, config_cls):
        assert config_cls(period_cycles=5500).rate_kbps == pytest.approx(400.0)
