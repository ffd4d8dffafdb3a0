"""Telemetry: bus, events, subscribers, session plumbing."""

import json
import random

import pytest

from repro.cache.cache import WritePolicy
from repro.cache.configs import make_xeon_hierarchy
from repro.cache.stats import ALL_OWNERS
from repro.telemetry import (
    AGGREGATE_OWNER,
    BusProfiler,
    CacheEvent,
    EventKind,
    TelemetryBus,
    TelemetryConfig,
    TelemetrySession,
    TraceRecorder,
    WindowedCounters,
    active_session,
    configure,
    default_config,
    session_bus,
    telemetry_session,
)
from tests.replay import random_trace, replay


def make_event(time=0, kind=EventKind.HIT, level=1, owner=0, **overrides):
    fields = dict(
        time=time,
        kind=kind,
        level=level,
        set_index=overrides.pop("set_index", 0),
        owner=owner,
        address=overrides.pop("address", 0x1000),
        write=overrides.pop("write", False),
        dirty=overrides.pop("dirty", False),
    )
    assert not overrides, overrides
    return CacheEvent(**fields)


class RecordingSubscriber:
    def __init__(self):
        self.events = []
        self.marks = []
        self.finished = 0

    def on_event(self, event):
        self.events.append(event)

    def on_mark(self, label):
        self.marks.append(label)

    def finish(self):
        self.finished += 1


class TestEvents:
    def test_aggregate_owner_matches_stats_sentinel(self):
        # events.py re-declares the sentinel to stay an import leaf.
        assert AGGREGATE_OWNER == ALL_OWNERS

    def test_to_dict_renders_kind_by_name(self):
        event = make_event(kind=EventKind.WRITEBACK, dirty=True)
        as_dict = event.to_dict()
        assert as_dict["kind"] == "writeback"
        assert as_dict["dirty"] is True
        assert json.dumps(as_dict)  # JSONL-exportable

    def test_tuple_equality(self):
        assert make_event() == make_event()
        assert make_event() != make_event(time=1)


class TestBus:
    def test_emit_fans_out_in_subscription_order(self):
        bus = TelemetryBus()
        first, second = RecordingSubscriber(), RecordingSubscriber()
        bus.subscribe(first)
        bus.subscribe(second)
        event = make_event()
        bus.emit(event)
        assert first.events == [event]
        assert second.events == [event]

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        subscriber = RecordingSubscriber()
        bus.subscribe(subscriber)
        bus.unsubscribe(subscriber)
        bus.emit(make_event())
        assert subscriber.events == []
        bus.unsubscribe(subscriber)  # no-op, not an error

    def test_tick_advances_logical_clock(self):
        bus = TelemetryBus()
        assert bus.tick() == 1
        assert bus.tick() == 2
        assert bus.time == 2

    def test_mark_reaches_subscribers_that_take_marks(self):
        class EventsOnly:
            def on_event(self, event):
                pass

        bus = TelemetryBus()
        subscriber = RecordingSubscriber()
        bus.subscribe(subscriber)
        bus.subscribe(EventsOnly())  # no on_mark: skipped
        bus.mark("epoch")
        bus.mark("again")
        assert subscriber.marks == ["epoch", "again"]

    def test_close_finishes_subscribers(self):
        bus = TelemetryBus()
        subscriber = RecordingSubscriber()
        bus.subscribe(subscriber)
        bus.close()
        assert subscriber.finished == 1


class TestHierarchyIntegration:
    def build(self, **kwargs):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), **kwargs)
        recorder = TraceRecorder(capacity=None)
        hierarchy.attach_telemetry(TelemetryBus()).subscribe(recorder)
        return hierarchy, recorder

    def test_no_bus_by_default(self):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0))
        assert hierarchy.telemetry is None

    def test_cold_miss_walks_all_levels(self):
        hierarchy, recorder = self.build()
        hierarchy.access(0x4000, False, owner=0)
        kinds = [(e.kind, e.level) for e in recorder.events]
        assert kinds == [
            (EventKind.MISS, 1),
            (EventKind.MISS, 2),
            (EventKind.MISS, 3),
        ]
        assert all(e.time == 1 for e in recorder.events)

    def test_hit_after_fill(self):
        hierarchy, recorder = self.build()
        hierarchy.access(0x4000, False, owner=0)
        recorder.clear()
        hierarchy.access(0x4000, True, owner=0)
        (event,) = recorder.events
        assert event.kind == EventKind.HIT
        assert event.level == 1
        assert event.write is True
        assert event.dirty is False  # dirty state *before* this store lands

    def test_dirty_hit_observed(self):
        hierarchy, recorder = self.build()
        hierarchy.access(0x4000, True, owner=0)
        recorder.clear()
        hierarchy.access(0x4000, False, owner=0)
        (event,) = recorder.events
        assert event.kind == EventKind.HIT
        assert event.dirty is True

    def test_event_counts_match_stats(self):
        hierarchy, recorder = self.build()
        trace = random_trace(num_accesses=3_000, seed=3)
        replay(hierarchy, trace, owner=0)
        events = recorder.events
        snapshot = hierarchy.stats.snapshot()
        for level in (1, 2, 3):
            level_events = [
                e
                for e in events
                if e.level == level
                and e.kind in (EventKind.HIT, EventKind.MISS)
            ]
            misses = [e for e in level_events if e.kind == EventKind.MISS]
            assert len(level_events) == snapshot[f"L{level}"]["accesses"]
            assert len(misses) == snapshot[f"L{level}"]["misses"]
        writebacks_l1 = [
            e
            for e in events
            if e.kind == EventKind.WRITEBACK and e.level == 1
        ]
        assert len(writebacks_l1) == snapshot["L1"]["writebacks"]

    def test_telemetry_does_not_change_results(self):
        trace = random_trace(num_accesses=3_000, seed=9)
        plain = make_xeon_hierarchy(rng=random.Random(0))
        observed, _ = self.build()
        result_plain = replay(plain, trace, owner=0)
        result_observed = replay(observed, trace, owner=0)
        assert [step.hit_level for step in result_plain] == [
            step.hit_level for step in result_observed
        ]
        assert [step.latency for step in result_plain] == [
            step.latency for step in result_observed
        ]
        assert plain.stats.snapshot() == observed.stats.snapshot()

    def test_detach_stops_emission(self):
        hierarchy, recorder = self.build()
        hierarchy.detach_telemetry()
        hierarchy.access(0x4000, False, owner=0)
        assert recorder.events == []
        assert hierarchy.telemetry is None

    def test_write_through_l1_emits_consistently(self):
        hierarchy, recorder = self.build(
            l1_write_policy=WritePolicy.WRITE_THROUGH
        )
        hierarchy.access(0x4000, True, owner=0)
        hierarchy.access(0x4000, True, owner=0)
        assert any(e.kind == EventKind.HIT for e in recorder.events)


class TestWindowedCounters:
    def feed(self, counters, specs):
        """specs: (time, kind, level, owner) tuples."""
        for time, kind, level, owner in specs:
            counters.on_event(
                make_event(time=time, kind=kind, level=level, owner=owner)
            )

    def test_windows_split_on_logical_time(self):
        counters = WindowedCounters(window=4)
        self.feed(
            counters,
            [(t, EventKind.MISS if t % 2 else EventKind.HIT, 1, 0)
             for t in range(1, 9)],
        )
        counters.finish()
        assert len(counters.windows) == 2
        assert counters.series("accesses", level=1, owner=0) == [4, 4]
        assert counters.series("misses", level=1, owner=0) == [2, 2]

    def test_gap_windows_are_materialised(self):
        counters = WindowedCounters(window=2)
        self.feed(counters, [(0, EventKind.HIT, 1, 0), (9, EventKind.HIT, 1, 0)])
        counters.finish()
        assert counters.series("accesses", level=1, owner=0) == [1, 0, 0, 0, 1]

    def test_aggregate_owner_view(self):
        counters = WindowedCounters(window=8)
        self.feed(
            counters,
            [(0, EventKind.HIT, 1, 0), (1, EventKind.MISS, 1, 1)],
        )
        counters.finish()
        assert counters.totals(1).accesses == 2  # owner=None -> aggregate
        assert counters.totals(1, owner=0).accesses == 1
        assert counters.totals(1, owner=1).misses == 1

    def test_mark_restarts_epoch(self):
        counters = WindowedCounters(window=4)
        self.feed(counters, [(t, EventKind.HIT, 1, 0) for t in range(6)])
        counters.on_mark("reset-stats")
        self.feed(counters, [(100, EventKind.MISS, 1, 0)])
        counters.finish()
        assert counters.series("misses", level=1, owner=0) == [1]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedCounters(window=0)


class TestTraceRecorder:
    def test_ring_buffer_drops_oldest(self):
        recorder = TraceRecorder(capacity=2)
        for t in range(5):
            recorder.on_event(make_event(time=t))
        assert [e.time for e in recorder.events] == [3, 4]
        assert recorder.total_events == 5
        assert recorder.dropped == 3

    def test_jsonl_round_trip(self, tmp_path):
        recorder = TraceRecorder(capacity=None)
        recorder.on_event(make_event(time=1, kind=EventKind.MISS))
        recorder.on_event(make_event(time=2, kind=EventKind.WRITEBACK))
        path = tmp_path / "trace.jsonl"
        assert recorder.to_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["miss", "writeback"]


class TestBusProfiler:
    def test_counts_and_phases(self):
        profiler = BusProfiler()
        profiler.on_event(make_event())
        with profiler.phase("measure"):
            profiler.on_event(make_event(time=1))
        summary = profiler.summary()
        assert summary["events"] == 2
        assert summary["phases"]["measure"]["events"] == 1


class TestSession:
    def test_session_attaches_hierarchies(self):
        with telemetry_session() as session:
            assert session is active_session()
            assert session_bus() is session.bus
            hierarchy = make_xeon_hierarchy(rng=random.Random(0))
            assert hierarchy.telemetry is session.bus
            hierarchy.access(0x4000, False, owner=0)
        assert active_session() is None
        assert session_bus() is None
        assert session.summary()["events"] == 3  # cold miss walks 3 levels

    def test_disabled_session_yields_none(self):
        with telemetry_session(enabled=False) as session:
            assert session is None
            hierarchy = make_xeon_hierarchy(rng=random.Random(0))
            assert hierarchy.telemetry is None

    def test_sessions_do_not_nest(self):
        with telemetry_session() as outer:
            with telemetry_session() as inner:
                assert inner is None
                assert session_bus() is outer.bus
            # Inner exit leaves the outer session active.
            assert active_session() is outer

    def test_configure_sets_process_default(self):
        previous = configure(TelemetryConfig(window=32))
        try:
            assert default_config().window == 32
            with telemetry_session() as session:
                assert session.config.window == 32
        finally:
            configure(previous)

    def test_export_trace(self, tmp_path):
        session = TelemetrySession(TelemetryConfig(trace_capacity=None))
        session.bus.emit(make_event())
        path = tmp_path / "out.jsonl"
        assert session.export_trace(str(path)) == 1
        assert path.read_text().count("\n") == 1
