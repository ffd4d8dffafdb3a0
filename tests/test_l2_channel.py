"""The L2 deployment of the WB channel (extension beyond the paper)."""

import pytest

from repro.channels.wb.l2 import (
    L2WBChannelConfig,
    build_l2_conflict_lines,
    make_l2_channel_hierarchy,
    run_l2_wb_channel,
)
from repro.channels.testbench import ChannelTestbench
from repro.channels.testbench import TestbenchConfig as BenchConfig
from repro.common.errors import ConfigurationError
from repro.cpu.noise import SchedulerNoise


class TestConflictLineConstruction:
    def test_lines_land_in_target_l2_set(self):
        bench = ChannelTestbench(
            BenchConfig(hierarchy_factory=make_l2_channel_hierarchy)
        )
        space = bench.new_space(pid=1)
        hierarchy = bench.hierarchy
        lines = build_l2_conflict_lines(space, hierarchy, 137, 12)
        l2 = hierarchy.levels[1]
        assert len(lines) == 12
        assert all(
            l2.set_index(space.translate(line)) == 137 for line in lines
        )

    def test_lines_share_one_l1_set(self):
        # L1 index bits are a subset of L2 index bits.
        bench = ChannelTestbench(
            BenchConfig(hierarchy_factory=make_l2_channel_hierarchy)
        )
        space = bench.new_space(pid=1)
        hierarchy = bench.hierarchy
        lines = build_l2_conflict_lines(space, hierarchy, 137, 8)
        l1_sets = {hierarchy.l1.layout.set_index(line) for line in lines}
        assert len(l1_sets) == 1

    def test_rejects_bad_set(self):
        bench = ChannelTestbench(
            BenchConfig(hierarchy_factory=make_l2_channel_hierarchy)
        )
        space = bench.new_space(pid=1)
        with pytest.raises(ConfigurationError):
            build_l2_conflict_lines(space, bench.hierarchy, 10**6, 2)


class TestL2Channel:
    def test_clean_transmission(self):
        result = run_l2_wb_channel(
            L2WBChannelConfig(
                seed=1,
                scheduler_noise=SchedulerNoise.disabled(),
                receiver_phase=0.5,
            )
        )
        assert result.bit_error_rate < 0.05

    def test_decoder_sees_l2_writeback_steps(self):
        result = run_l2_wb_channel(
            L2WBChannelConfig(
                seed=2,
                scheduler_noise=SchedulerNoise.disabled(),
                receiver_phase=0.5,
            )
        )
        # d=4 dirty L2 lines add ~4 * l2_writeback_penalty (18) cycles.
        assert 40 <= result.decoder.separation() <= 110

    def test_rate_is_slower_than_l1(self):
        config = L2WBChannelConfig()
        assert config.rate_kbps == pytest.approx(100.0)

    def test_with_noise_still_decodes(self):
        result = run_l2_wb_channel(L2WBChannelConfig(seed=3))
        assert result.bit_error_rate < 0.25

    def test_str(self):
        result = run_l2_wb_channel(
            L2WBChannelConfig(
                seed=4,
                message_bits=32,
                scheduler_noise=SchedulerNoise.disabled(),
                receiver_phase=0.5,
            )
        )
        assert str(result).startswith("L2 WB channel @")
