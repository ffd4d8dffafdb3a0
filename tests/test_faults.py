"""Deterministic fault injection (repro.faults) and the hardened stack."""

import dataclasses

import pytest

from repro.channels.wb import (
    WBChannelConfig,
    run_robust_wb_channel,
    run_wb_channel,
)
from repro.channels.wb.protocol import BinaryDirtyCodec
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.faults import (
    DEFAULT_FAULT_SPEC,
    DEFAULT_FLEET_FAULT_SPEC,
    CoRunnerProgram,
    FaultSpec,
    apply_measurement_faults,
    build_fault_schedule,
    desched_plan,
    emit_fault_events,
    fleet_fault_decision,
)
from repro.faults.chaos import CHAOS_MARKER_ENV, CHAOS_TASK_ENV, _chaos_armed
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import EventKind
from repro.telemetry.subscribers import TraceRecorder, WindowedCounters


def schedule_for(spec, seed=7, num_symbols=200, num_slots=220):
    return build_fault_schedule(
        spec,
        seed=seed,
        num_symbols=num_symbols,
        period=5500,
        start_time=1000,
        num_slots=num_slots,
    )


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(desched_rate=-0.1)

    def test_window_and_magnitude_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(desched_min_periods=2.0, desched_max_periods=1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(drift_cycles_per_symbol=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(corunner_accesses=0)

    def test_scaled_scales_rates_and_drift_only(self):
        spec = DEFAULT_FAULT_SPEC.scaled(2.0)
        assert spec.drop_rate == pytest.approx(DEFAULT_FAULT_SPEC.drop_rate * 2)
        assert spec.drift_cycles_per_symbol == pytest.approx(
            DEFAULT_FAULT_SPEC.drift_cycles_per_symbol * 2
        )
        # Magnitudes are intensity-invariant.
        assert spec.desched_max_periods == DEFAULT_FAULT_SPEC.desched_max_periods
        assert spec.corunner_accesses == DEFAULT_FAULT_SPEC.corunner_accesses
        assert spec.drift_limit_cycles == DEFAULT_FAULT_SPEC.drift_limit_cycles

    def test_scaled_clamps_rates_at_one(self):
        spec = DEFAULT_FAULT_SPEC.scaled(1000.0)
        assert spec.drop_rate == 1.0
        assert spec.corunner_rate == 1.0

    def test_scaled_zero_is_fault_free(self):
        spec = DEFAULT_FAULT_SPEC.scaled(0.0)
        assert schedule_for(spec).empty

    def test_scaled_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_FAULT_SPEC.scaled(-1.0)

    def test_to_dict_round_trips(self):
        spec = DEFAULT_FAULT_SPEC.scaled(0.5)
        assert FaultSpec(**spec.to_dict()) == spec

    def test_to_dict_omits_fleet_fields_at_defaults(self):
        """Key-stability: specs predating the fleet fields must keep
        producing byte-identical canonical dicts (scenario KEYS.json
        pins hash this form)."""
        data = DEFAULT_FAULT_SPEC.to_dict()
        for name in (
            "heartbeat_stale_rate",
            "upload_drop_rate",
            "store_slow_rate",
            "store_slow_seconds",
        ):
            assert name not in data

    def test_to_dict_keeps_fleet_fields_when_set(self):
        spec = FaultSpec(upload_drop_rate=0.25, store_slow_seconds=0.1)
        data = spec.to_dict()
        assert data["upload_drop_rate"] == 0.25
        assert data["store_slow_seconds"] == 0.1
        assert "heartbeat_stale_rate" not in data  # still at default
        assert FaultSpec(**data) == spec

    def test_fleet_rates_validated_and_scaled(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(heartbeat_stale_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(store_slow_seconds=-0.1)
        spec = FaultSpec(upload_drop_rate=0.2, store_slow_rate=0.1)
        doubled = spec.scaled(2.0)
        assert doubled.upload_drop_rate == pytest.approx(0.4)
        assert doubled.store_slow_rate == pytest.approx(0.2)
        # Magnitudes are intensity-invariant; rates clamp at 1.
        assert doubled.store_slow_seconds == spec.store_slow_seconds
        assert spec.scaled(100.0).upload_drop_rate == 1.0


class TestFleetFaultDecision:
    def test_pure_function_of_spec_seed_key_attempt(self):
        spec = DEFAULT_FLEET_FAULT_SPEC
        for key in ("a" * 64, "b" * 64):
            for attempt in (1, 2, 3):
                first = fleet_fault_decision(spec, 7, key, attempt)
                second = fleet_fault_decision(spec, 7, key, attempt)
                assert first == second

    def test_decisions_vary_across_attempts_and_keys(self):
        spec = DEFAULT_FLEET_FAULT_SPEC.scaled(3.0)
        faults = {
            fleet_fault_decision(spec, 7, f"{index:064d}", attempt).fault
            for index in range(40)
            for attempt in (1, 2)
        }
        assert len(faults) > 1  # not everything collapses to one class

    def test_at_most_one_fault_per_attempt(self):
        spec = DEFAULT_FLEET_FAULT_SPEC.scaled(5.0)
        for index in range(100):
            decision = fleet_fault_decision(spec, 3, f"{index:064x}", 1)
            flags = [
                decision.crash,
                decision.hang,
                decision.stale_heartbeat,
                decision.drop_upload,
                decision.slow_store,
            ]
            assert sum(flags) <= 1
            if decision.fault is None:
                assert not any(flags)

    def test_intensity_zero_is_fault_free(self):
        spec = DEFAULT_FLEET_FAULT_SPEC.scaled(0.0)
        for index in range(50):
            decision = fleet_fault_decision(spec, 11, f"{index:064x}", 1)
            assert decision.fault is None
            assert not decision.loses_lease

    def test_loses_lease_classification(self):
        # Crash/hang/stale-heartbeat/dropped-upload all end in lease
        # expiry and re-dispatch; a slow store completes normally.
        lossy = FaultSpec(worker_crash_rate=1.0)
        decision = fleet_fault_decision(lossy, 0, "k" * 64, 1)
        assert decision.crash and decision.loses_lease
        slow = FaultSpec(store_slow_rate=1.0, store_slow_seconds=0.25)
        decision = fleet_fault_decision(slow, 0, "k" * 64, 1)
        assert decision.slow_store and not decision.loses_lease
        assert decision.store_slow_seconds == 0.25

    def test_default_fleet_regime_bites_but_mostly_succeeds(self):
        """At intensity 1.0 a meaningful minority of attempts misbehave
        (the chaos campaign exercises every recovery path) without the
        regime degenerating into all-faults."""
        spec = DEFAULT_FLEET_FAULT_SPEC
        faulty = sum(
            1
            for index in range(500)
            if fleet_fault_decision(spec, 1, f"{index:064x}", 1).fault
        )
        assert 100 <= faulty <= 300


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        first = schedule_for(DEFAULT_FAULT_SPEC, seed=11)
        second = schedule_for(DEFAULT_FAULT_SPEC, seed=11)
        assert first == second

    def test_different_seed_different_schedule(self):
        first = schedule_for(DEFAULT_FAULT_SPEC.scaled(3.0), seed=11)
        second = schedule_for(DEFAULT_FAULT_SPEC.scaled(3.0), seed=12)
        assert first != second

    def test_per_class_streams_are_rate_invariant(self):
        """Raising one class's rate never moves another class's events."""
        base = schedule_for(DEFAULT_FAULT_SPEC, seed=5)
        loud = schedule_for(
            dataclasses.replace(DEFAULT_FAULT_SPEC, corunner_rate=1.0), seed=5
        )
        assert loud.dropped_slots == base.dropped_slots
        assert loud.duplicated_slots == base.duplicated_slots
        assert loud.sender_desched == base.sender_desched
        assert loud.receiver_desched == base.receiver_desched
        assert len(loud.corunner_bursts) == loud.num_symbols

    def test_drift_is_monotone_and_saturates(self):
        spec = dataclasses.replace(
            DEFAULT_FAULT_SPEC, drift_cycles_per_symbol=0.5, drift_limit_cycles=15.0
        )
        schedule = schedule_for(spec, num_symbols=100, num_slots=100)
        offsets = schedule.drift_offsets
        assert list(offsets) == sorted(offsets)
        assert offsets[0] == 0
        assert max(offsets) == 15
        assert offsets[-1] == 15  # saturated well before the end

    def test_symbol_origin_continues_the_drift_ramp(self):
        spec = dataclasses.replace(DEFAULT_FAULT_SPEC, drift_cycles_per_symbol=0.1)
        first = build_fault_schedule(
            spec, seed=1, num_symbols=50, period=5500, start_time=0
        )
        continued = build_fault_schedule(
            spec, seed=2, num_symbols=50, period=5500, start_time=0,
            symbol_origin=50,
        )
        combined = build_fault_schedule(
            spec, seed=1, num_symbols=100, period=5500, start_time=0
        )
        assert first.drift_offsets == combined.drift_offsets[:50]
        assert continued.drift_offsets == combined.drift_offsets[50:]

    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            build_fault_schedule(DEFAULT_FAULT_SPEC, 0, num_symbols=0,
                                 period=5500, start_time=0)
        with pytest.raises(ConfigurationError):
            build_fault_schedule(DEFAULT_FAULT_SPEC, 0, num_symbols=10,
                                 period=0, start_time=0)
        with pytest.raises(ConfigurationError):
            build_fault_schedule(DEFAULT_FAULT_SPEC, 0, num_symbols=10,
                                 period=5500, start_time=0, num_slots=5)

    def test_summary_counts_events(self):
        schedule = schedule_for(DEFAULT_FAULT_SPEC.scaled(3.0), seed=3)
        summary = schedule.summary()
        assert summary["seed"] == 3
        assert summary["dropped_slots"] == len(schedule.dropped_slots)
        assert summary["corunner_bursts"] == len(schedule.corunner_bursts)
        assert summary["max_drift_cycles"] == max(schedule.drift_offsets)


class TestInjector:
    def test_desched_plan_per_party(self):
        schedule = schedule_for(DEFAULT_FAULT_SPEC.scaled(5.0), seed=13)
        assert desched_plan(schedule, "sender") == dict(schedule.sender_desched)
        assert desched_plan(schedule, "receiver") == dict(
            schedule.receiver_desched
        )
        with pytest.raises(ConfigurationError):
            desched_plan(schedule, "bystander")

    def test_corunner_program_needs_lines(self):
        with pytest.raises(ConfigurationError):
            CoRunnerProgram(lines=[], bursts=[(0, 4)])

    def test_measurement_faults_drop_duplicate_drift(self):
        samples = [(1000 * slot, 134) for slot in range(8)]
        schedule = dataclasses.replace(
            schedule_for(DEFAULT_FAULT_SPEC, num_symbols=8, num_slots=8),
            dropped_slots=(2,),
            duplicated_slots=(5,),
            drift_offsets=tuple(range(8)),
        )
        out = apply_measurement_faults(samples, schedule)
        # One drop, one duplicate: same net length, different content.
        assert len(out) == 8
        assert (2000, 136) not in out  # slot 2 dropped
        assert out.count((5000, 139)) == 2  # slot 5 duplicated, drift +5
        assert out[0] == (0, 134)  # slot 0: zero drift

    def test_measurement_faults_without_events_is_identity_plus_drift(self):
        samples = [(10 * slot, 140) for slot in range(4)]
        schedule = dataclasses.replace(
            schedule_for(DEFAULT_FAULT_SPEC, num_symbols=4, num_slots=4),
            dropped_slots=(),
            duplicated_slots=(),
            drift_offsets=(0, 0, 0, 0),
        )
        assert apply_measurement_faults(samples, schedule) == samples


class TestFaultTelemetry:
    def test_emit_fault_events_reaches_subscribers(self):
        schedule = schedule_for(DEFAULT_FAULT_SPEC.scaled(4.0), seed=2)
        expected = (
            len(schedule.sender_desched)
            + len(schedule.receiver_desched)
            + len(schedule.dropped_slots)
            + len(schedule.duplicated_slots)
            + len(schedule.corunner_bursts)
        )
        assert expected > 0
        bus = TelemetryBus()
        counters = bus.subscribe(WindowedCounters(window=1 << 30))
        recorder = bus.subscribe(TraceRecorder(capacity=None))
        emitted = emit_fault_events(bus, schedule, target_set=17)
        counters.finish()
        assert emitted == expected
        assert recorder.total_events == expected
        kinds = {event.kind for event in recorder.events}
        assert kinds == {int(EventKind.FAULT)}
        assert all(event.set_index == 17 for event in recorder.events)
        # The faults land in the counters' dedicated tally, and in the
        # manifest-facing summary.
        assert counters.totals(0).faults == expected
        assert counters.summary()["levels"]["L0"]["faults"] == expected


class TestChaosArming:
    def test_arms_exactly_once(self, tmp_path, monkeypatch):
        marker = tmp_path / "chaos.marker"
        monkeypatch.setenv(CHAOS_MARKER_ENV, str(marker))
        monkeypatch.delenv(CHAOS_TASK_ENV, raising=False)
        assert _chaos_armed("table2")
        assert marker.exists()
        assert not _chaos_armed("table2")  # disarmed across "processes"

    def test_task_filter(self, tmp_path, monkeypatch):
        marker = tmp_path / "chaos.marker"
        monkeypatch.setenv(CHAOS_MARKER_ENV, str(marker))
        monkeypatch.setenv(CHAOS_TASK_ENV, "fig7")
        assert not _chaos_armed("table2")
        assert not marker.exists()
        assert _chaos_armed("fig7")

    def test_unset_means_no_chaos(self, monkeypatch):
        monkeypatch.delenv(CHAOS_MARKER_ENV, raising=False)
        assert not _chaos_armed("table2")


def faulted_config(intensity, seed=0, message_bits=64):
    return WBChannelConfig(
        codec=BinaryDirtyCodec(d_on=1),
        period_cycles=5500,
        message_bits=message_bits,
        seed=seed,
        faults=DEFAULT_FAULT_SPEC.scaled(intensity) if intensity else None,
    )


class TestFaultedChannel:
    def test_faulted_run_is_deterministic(self):
        first = run_wb_channel(faulted_config(1.0, seed=4))
        second = run_wb_channel(faulted_config(1.0, seed=4))
        assert first.fault_summary == second.fault_summary
        assert first.received_bits == second.received_bits
        assert first.bit_error_rate == second.bit_error_rate

    def test_fault_stream_is_separate_from_simulator_stream(self):
        """A faulted run perturbs measurements, not the sent message."""
        clean = run_wb_channel(faulted_config(0.0, seed=4))
        faulted = run_wb_channel(faulted_config(1.0, seed=4))
        assert clean.sent_bits == faulted.sent_bits
        assert clean.fault_summary is None
        assert faulted.fault_summary is not None

    def test_intensity_degrades_raw_channel(self):
        clean = run_wb_channel(faulted_config(0.0, seed=0))
        faulted = run_wb_channel(faulted_config(1.0, seed=0))
        assert clean.bit_error_rate == 0.0
        assert faulted.bit_error_rate > 0.10

    def test_fault_seed_label_is_per_round(self):
        assert derive_seed(0, "faults/round0") != derive_seed(0, "faults/round1")


class TestRobustRecovery:
    def test_hardened_stack_survives_where_raw_collapses(self):
        """The PR's acceptance property at quick scale: raw BER above 10%
        while the framed + CRC + resync + ARQ stack delivers the payload
        bit-exactly at reduced goodput."""
        raw = run_wb_channel(faulted_config(1.0, seed=0, message_bits=80))
        assert raw.bit_error_rate > 0.10
        hardened = run_robust_wb_channel(faulted_config(1.0, seed=0))
        assert hardened.payload_intact
        assert hardened.recovered_bits == hardened.payload_bits
        assert hardened.frames_recovered == hardened.frames_total
        assert 0.0 < hardened.goodput_kbps < hardened.rate_kbps
        assert len(hardened.fault_summaries) == hardened.rounds_used

    def test_fault_free_robust_run_uses_one_round(self):
        result = run_robust_wb_channel(faulted_config(0.0, seed=1))
        assert result.payload_intact
        assert result.rounds_used == 1
        assert result.retransmissions == 0
        assert result.fault_summaries == ()
