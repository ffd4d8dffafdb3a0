"""The cross-core WB channel and its scenario/registry/service wiring."""

import inspect

import pytest

from repro.channels.encoding import BinaryDirtyCodec
from repro.channels.wb.sender import WBSenderProgram
from repro.channels.wb.cross_core import (
    CrossCoreReceiverProgram,
    CrossCoreWBChannelConfig,
    calibrate_cross_core,
    run_cross_core_wb_channel,
    transmit_cross_core_schedule,
)
from repro.cache.configs import HierarchyParams
from repro.common.errors import ConfigurationError
from repro.experiments import available_experiments, run_experiment
from repro.scenario import CrossCoreParams, compile_scenario, scenario_key
from repro.scenario.library import cross_core_wb_spec
from repro.scenario.zoo import cross_core_quad_spec


def quick_config(**overrides):
    defaults = dict(message_bits=16, calibration_repetitions=10, seed=0)
    defaults.update(overrides)
    return CrossCoreWBChannelConfig(**defaults)


class TestChannel:
    def test_quick_transmission_decodes_bit_exactly(self):
        result = run_cross_core_wb_channel(quick_config())
        assert result.payload_intact
        assert result.bit_error_rate == 0.0
        assert result.sent_bits == result.received_bits
        assert str(result).startswith("WB channel @")

    def test_coherence_writebacks_carry_the_signal(self):
        coherence = {}
        result = run_cross_core_wb_channel(
            quick_config(), coherence_out=coherence
        )
        ones = sum(result.sent_bits)
        # Every 1-bit dirties d_on lines, each drained by one M->S
        # downgrade when the receiver probes (the decoder calibration
        # run is not included in this snapshot).
        assert coherence["downgrades_m_to_s"] >= ones * 4
        assert coherence["coherence_writebacks"] >= ones * 4

    def test_calibration_separates_levels(self):
        decoder = calibrate_cross_core(quick_config())
        assert len(decoder.thresholds) == 1
        low, high = decoder.medians
        assert high - low > 20  # 4 downgrade round-trips vs 4 L1 hits

    def test_deterministic_at_fixed_seed(self):
        first = run_cross_core_wb_channel(quick_config(seed=3))
        second = run_cross_core_wb_channel(quick_config(seed=3))
        assert first.samples == second.samples
        assert first.received_bits == second.received_bits

    def test_transmit_reports_per_core_perf(self):
        config = quick_config()
        transmission = transmit_cross_core_schedule(
            config, [4, 0, 4], phase=0.6, num_samples=3
        )
        assert len(transmission.samples) == 3
        assert transmission.sender_perf.owner == 0
        assert transmission.receiver_perf.owner == 1

    def test_four_core_topology_works(self):
        result = run_cross_core_wb_channel(quick_config(cores=4))
        assert result.payload_intact

    def test_single_core_hierarchy_is_rejected(self):
        config = quick_config(hierarchy=HierarchyParams.xeon())
        with pytest.raises(ConfigurationError):
            config.resolve_hierarchy()

    def test_schedule_wider_than_line_pool_is_rejected(self):
        # The cross-core sender is the single-core WBSenderProgram.
        with pytest.raises(ConfigurationError):
            WBSenderProgram(
                lines=[0x1000], schedule=[2], period=100, start_time=0
            )

    def test_receiver_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            CrossCoreReceiverProgram(
                lines=[], period=100, start_time=0, num_samples=1
            )
        with pytest.raises(ConfigurationError):
            CrossCoreReceiverProgram(
                lines=[0x1000], period=100, start_time=0, num_samples=0
            )

    def test_message_shorter_than_preamble_is_rejected(self):
        with pytest.raises(ConfigurationError):
            quick_config(message_bits=2).resolve_message()


class TestScenarioIntegration:
    def test_library_spec_compiles_and_round_trips(self):
        spec = cross_core_wb_spec()
        assert spec.kind == "cross_core_wb"
        assert spec.hierarchy.cores == 2
        restored = type(spec).from_json(spec.to_json())
        assert restored == spec
        assert scenario_key(restored) == scenario_key(spec)

    def test_quad_variant_differs_only_in_scale(self):
        quad = cross_core_quad_spec()
        assert quad.hierarchy.cores == 4
        assert scenario_key(quad) != scenario_key(cross_core_wb_spec())

    def test_single_core_scenario_is_rejected_at_measure_time(self):
        import dataclasses

        spec = dataclasses.replace(cross_core_wb_spec(), hierarchy=None)
        with pytest.raises(ConfigurationError):
            compile_scenario(spec, "quick", 0).measure()

    def test_params_reject_empty_detectors(self):
        with pytest.raises(ConfigurationError):
            CrossCoreParams(detectors=())

    def test_params_unknown_field_is_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossCoreParams.from_dict({"no_such_field": 1})

    def test_measurement_decodes_and_watches_every_core(self):
        measurement = compile_scenario(cross_core_wb_spec(), "quick", 0).measure()
        assert measurement.all_payloads_intact
        assert measurement.mean_ber == 0.0
        assert measurement.cores == 2
        assert measurement.coherence["downgrades_m_to_s"] > 0
        # One instance of each configured detector per core.
        assert set(measurement.detector_names) == {
            "monitor_core0",
            "monitor_core1",
            "burst_core0",
            "burst_core1",
        }
        assert set(measurement.alarm_rates) == set(measurement.detector_names)


class TestRegistryConformance:
    def test_experiment_is_registered(self):
        assert "cross_core_wb" in available_experiments()

    def test_run_signature_is_keyword_only(self):
        from repro.experiments.cross_core import run

        signature = inspect.signature(run)
        assert list(signature.parameters) == ["profile", "seed"]
        for parameter in signature.parameters.values():
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY

    def test_quick_profile_decodes_across_cores(self):
        """The acceptance gate: bit-exact payload via coherence WBs."""
        result = run_experiment("cross_core_wb", profile="quick", seed=0)
        assert result.params["all_payloads_intact"] is True
        assert result.params["mean_ber"] == 0.0
        assert result.params["cores"] == 2
        assert result.params["coherence"]["coherence_writebacks"] > 0
        assert result.rows  # one row per per-core detector


class TestEncodingAssumptions:
    def test_default_codec_matches_spec_codec(self):
        config = CrossCoreWBChannelConfig()
        spec_codec = cross_core_wb_spec().channel.codec.build()
        assert isinstance(config.codec, BinaryDirtyCodec)
        assert config.codec.levels == spec_codec.levels
