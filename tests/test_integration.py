"""Cross-cutting integration scenarios beyond single-module behaviour."""

import pytest

from repro.channels.encoding import BinaryDirtyCodec, MultiBitDirtyCodec
from repro.channels.results import TransmissionResult
from repro.channels.wb import WBChannelConfig, run_wb_channel
from repro.common.units import cycles_to_kbps
from repro.cpu.noise import SchedulerNoise

QUIET = dict(
    message_bits=64,
    scheduler_noise=SchedulerNoise.disabled(),
    receiver_phase=0.5,
)


class TestChannelAcrossTargetSets:
    @pytest.mark.parametrize("target_set", [0, 21, 63])
    def test_any_set_works(self, target_set):
        result = run_wb_channel(
            WBChannelConfig(seed=4, target_set=target_set, **QUIET)
        )
        assert result.bit_error_rate < 0.1

    def test_random_set_selection(self):
        result = run_wb_channel(WBChannelConfig(seed=4, target_set=None, **QUIET))
        assert result.bit_error_rate < 0.1


class TestChannelAcrossPolicies:
    @pytest.mark.parametrize(
        "policy", ["lru", "tree-plru", "e5-2650", "srrip"]
    )
    def test_wb_channel_survives_policy_change(self, policy):
        # The channel keys on line *state*, not replacement metadata, so
        # it should work on every deterministic policy with L=10.
        result = run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=3),
                seed=5,
                hierarchy_overrides={"l1_policy": policy},
                **QUIET,
            )
        )
        assert result.bit_error_rate < 0.1, policy

    def test_wb_channel_on_random_policy_with_big_d(self):
        result = run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=8),
                replacement_set_size=12,
                seed=5,
                hierarchy_overrides={"l1_policy": "random"},
                **QUIET,
            )
        )
        assert result.bit_error_rate < 0.15


class TestVIPTProperty:
    def test_sender_receiver_collide_without_shared_memory(self):
        """The threat model's core enabler, end to end.

        Distinct processes (disjoint physical frames) still contend in
        the same L1 set because the VIPT index bits lie inside the page
        offset — without that, no contention, no channel.
        """
        result = run_wb_channel(WBChannelConfig(seed=6, **QUIET))
        # Transmission succeeded => cross-process set contention worked.
        assert result.bit_error_rate < 0.1
        # And the processes really share no physical lines:
        sender_pages = set()
        receiver_pages = set()
        # (page tables are private state; assert via distinct perf counts)
        assert result.sender_perf.l1_accesses != result.receiver_perf.l1_accesses
        del sender_pages, receiver_pages


class TestRateAccounting:
    @pytest.mark.parametrize("period", [800, 1600, 5500])
    def test_elapsed_time_matches_symbol_pacing(self, period):
        result = run_wb_channel(WBChannelConfig(seed=7, period_cycles=period, **QUIET))
        symbols = len(result.sent_bits)
        # The run must take at least symbols * period cycles.
        assert result.elapsed_cycles >= symbols * period

    def test_multibit_doubles_rate(self):
        binary = WBChannelConfig(period_cycles=2000)
        multibit = WBChannelConfig(codec=MultiBitDirtyCodec(), period_cycles=2000)
        assert multibit.rate_kbps == pytest.approx(2 * binary.rate_kbps)
        assert multibit.rate_kbps == pytest.approx(cycles_to_kbps(2000, 2))


class TestTransmissionResult:
    def test_str(self):
        result = TransmissionResult(
            channel="X",
            sent_bits=(1, 0),
            received_bits=(1, 0),
            bit_error_rate=0.0,
            errors=0,
            rate_kbps=100.0,
            period_cycles=1000,
            sender_perf=None,
            receiver_perf=None,
            elapsed_cycles=1.0,
        )
        assert "X @ 100 Kbps" in str(result)
