"""The closed-loop defense experiment: pinned outcomes and determinism.

The ``closed_loop_defense`` scenario closes the paper's Section 7
stealth asymmetry into a live detect→fuse→respond loop.  These tests pin
the quick/seed-0 outcome to the digit — alarm times, the flip frame's
stream event id, the boundary symbol, pre/post-flip capacities — and
then assert the whole measurement is bit-identical across the reference
and fast engines *and* across stream clients attaching, dropping and
resuming mid-run (observers must never perturb the result).
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import engine_context
from repro.experiments.profiles import RunProfile
from repro.scenario.closed_loop import (
    ModulatingDirtySender,
    PhaseStats,
    _phase_stats,
    _run_corun,
    measure_closed_loop,
)
from repro.scenario.library import closed_loop_defense_spec
from repro.telemetry.bus import TelemetryBus

SEED = 0


def _measure(stream_hook=None):
    return measure_closed_loop(
        closed_loop_defense_spec(),
        RunProfile("quick", reduced=True),
        SEED,
        stream_hook=stream_hook,
    )


@pytest.fixture(scope="module")
def measurement():
    """One reference-engine quick/seed-0 run, shared by the pin tests."""
    return _measure()


class TestPinnedOutcomes:
    """quick/seed-0 values, frozen alongside the committed golden."""

    def test_calibrated_thresholds(self, measurement):
        assert measurement.thresholds == {
            "monitor_fast": 5.374339756509049,
            "monitor_slow": 5.706504836352046,
            "burst": 0.8351449305454429,
        }

    def test_fusion_rule(self, measurement):
        assert measurement.fusion_rule == (
            "2-of-3 sources with >= 1 over-threshold scores within 300"
        )
        assert measurement.num_symbols == 48
        assert measurement.defense == "write_through"

    def test_wb_sender_completes_without_an_alarm(self, measurement):
        wb = measurement.outcomes["wb"]
        assert wb.alarm_time is None
        assert wb.alarm_sources == ()
        assert wb.flip_time is None
        assert wb.flip_event_id is None
        assert wb.boundary_symbol is None
        assert wb.post is None
        assert wb.pre == PhaseStats(
            symbols=48,
            errors=3,
            ber=0.0625,
            capacity=0.6627099333829861,
        )
        assert wb.stream_events == 48632
        assert wb.stream_dropped == 0

    def test_lru_sender_trips_the_loop_and_loses_the_channel(
        self, measurement
    ):
        lru = measurement.outcomes["lru"]
        assert lru.alarm_time == 60
        assert lru.alarm_sources == ("monitor_fast", "monitor_slow")
        assert lru.flip_time == 60
        assert lru.flip_event_id == 30169
        assert lru.boundary_symbol == 5
        assert lru.pre == PhaseStats(
            symbols=5, errors=0, ber=0.0, capacity=1.0
        )
        assert lru.post == PhaseStats(
            symbols=42, errors=21, ber=0.5, capacity=0.0
        )
        assert not lru.payload_intact
        assert lru.stream_events == 56945
        assert lru.stream_dropped == 0

    def test_stealth_asymmetry_holds(self, measurement):
        assert measurement.asymmetry_holds is True
        lru = measurement.outcomes["lru"]
        assert lru.post.capacity * 10.0 <= lru.pre.capacity


class TestCrossEngineDeterminism:
    def test_fast_engine_reproduces_the_reference_bit_for_bit(
        self, measurement
    ):
        with engine_context("fast"):
            fast = _measure()
        assert fast.thresholds == measurement.thresholds
        assert fast.outcomes == measurement.outcomes
        assert fast.series == measurement.series
        assert fast.asymmetry_holds is measurement.asymmetry_holds


class _ReconnectingObserver:
    """A stream consumer that drops its client mid-run and resumes.

    Attached via ``stream_hook``: the first client detaches itself after
    ``drop_after`` frames (from inside the publisher's fan-out, like a
    consumer dying mid-write); the observer then re-attaches with
    ``Last-Event-ID`` semantics and keeps following to the end.
    """

    def __init__(self, drop_after=500):
        self.drop_after = drop_after
        self.cursors = {}

    def __call__(self, suspect, publisher):
        state = {"seen": 0, "resumed": None, "first_resumed_id": None}
        self.cursors[suspect] = state

        def second_leg(frame):
            if state["first_resumed_id"] is None:
                state["first_resumed_id"] = frame.event_id
            return True

        def first_leg(frame):
            state["seen"] += 1
            if state["seen"] == self.drop_after:
                publisher.detach(first_client)
                state["resumed"] = publisher.attach(
                    last_event_id=frame.event_id, accepts=second_leg
                )
            return True

        first_client = publisher.attach(accepts=first_leg, capacity=16)


class TestMidRunReconnect:
    def test_reconnecting_clients_cannot_perturb_the_outcome(
        self, measurement
    ):
        observer = _ReconnectingObserver(drop_after=500)
        observed = _measure(stream_hook=observer)
        assert observed.thresholds == measurement.thresholds
        # The slow bounded clients *do* drop frames — that is the point —
        # so the drop counter is the one field allowed to differ.
        normalized = {
            suspect: dataclasses.replace(outcome, stream_dropped=0)
            for suspect, outcome in observed.outcomes.items()
        }
        assert normalized == measurement.outcomes
        assert all(
            outcome.stream_dropped > 0
            for outcome in observed.outcomes.values()
        )
        assert observed.series == measurement.series
        # Each suspect's observer did drop mid-run and resume.
        for suspect in ("wb", "lru"):
            state = observer.cursors[suspect]
            assert state["seen"] == 500
            assert state["resumed"] is not None
            # The resume picked up contiguously with the drop cursor.
            assert state["first_resumed_id"] == 501


class TestUnits:
    def test_pilot_corun_emits_no_event(self, monkeypatch):
        # The decoder's pilot co-run feeds no detector, so no bus is
        # attached and the walk emits nothing.
        emitted = []
        emit = TelemetryBus.emit

        def counting_emit(bus, event):
            emitted.append(event)
            emit(bus, event)

        monkeypatch.setattr(TelemetryBus, "emit", counting_emit)
        pilot_bits = [0, 1] * 4
        pilot = _run_corun(
            closed_loop_defense_spec(), "wb", len(pilot_bits), SEED, {},
            message_override=pilot_bits,
        )
        assert len(pilot.receiver.latencies()) == len(pilot_bits)
        assert emitted == []

    def test_phase_stats_of_an_empty_phase_is_none(self):
        assert _phase_stats([], []) is None

    def test_phase_stats_counts_errors(self):
        stats = _phase_stats([0, 1, 1, 0], [0, 0, 1, 0])
        assert stats.symbols == 4
        assert stats.errors == 1
        assert stats.ber == 0.25

    def test_modulating_sender_validation(self):
        with pytest.raises(ConfigurationError):
            ModulatingDirtySender(
                activity=None, line=0, message=[], period=10,
                start_time=0, modulation_interval=0,
            )
        with pytest.raises(ConfigurationError):
            ModulatingDirtySender(
                activity=None, line=0, message=[], period=10,
                start_time=0, duty=0.0,
            )
