"""Network-facing telemetry: frames, bounded clients, ambient publishing.

Covers :mod:`repro.telemetry.net`, the stream publisher the service and
the closed-loop scenario share: its bounded drop-oldest client queues
are what keep a slow consumer from stalling the producer.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import CacheEvent, EventKind
from repro.telemetry.net import (
    StreamClient,
    StreamFrame,
    StreamPublisher,
    active_publisher,
    bind_publisher,
    ndjson_line,
    publish_ambient,
    sse_block,
)
from repro.telemetry.subscribers import BusProfiler
from tests.replay import random_trace, replay


def _drain(client, limit=1000):
    """Everything currently queued on a client (non-blocking)."""
    frames = []
    for _ in range(limit):
        frame = client.get(timeout=0.0)
        if frame is None:
            break
        frames.append(frame)
    return frames


class TestFrames:
    def test_to_dict_merges_payload_after_id_and_type(self):
        frame = StreamFrame(7, "score", {"source": "m", "score": 1.5})
        assert frame.to_dict() == {
            "id": 7, "type": "score", "source": "m", "score": 1.5
        }

    def test_ndjson_line_is_one_sorted_json_line(self):
        line = ndjson_line(StreamFrame(3, "mark", {"label": "epoch"}))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        decoded = json.loads(line)
        assert decoded == {"id": 3, "type": "mark", "label": "epoch"}
        assert line == (
            json.dumps(decoded, sort_keys=True) + "\n"
        ).encode("utf-8")

    def test_sse_block_carries_cursor_event_and_data(self):
        block = sse_block(StreamFrame(12, "alarm", {"time": 60}))
        text = block.decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "id: 12"
        assert lines[1] == "event: alarm"
        assert lines[2].startswith("data: ")
        assert json.loads(lines[2][len("data: "):])["time"] == 60
        assert text.endswith("\n\n")


class TestStreamClient:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StreamClient(capacity=0)

    def test_overflow_drops_oldest_and_counts(self):
        client = StreamClient(capacity=2)
        for event_id in (1, 2, 3):
            client._offer(StreamFrame(event_id, "mark", {}))
        assert client.dropped == 1
        assert [frame.event_id for frame in _drain(client)] == [2, 3]

    def test_accepts_predicate_filters_without_counting_drops(self):
        client = StreamClient(
            capacity=8, accepts=lambda frame: frame.type == "score"
        )
        client._offer(StreamFrame(1, "cache_event", {}))
        client._offer(StreamFrame(2, "score", {}))
        assert client.dropped == 0
        assert [frame.event_id for frame in _drain(client)] == [2]

    def test_close_wakes_a_blocked_get_and_refuses_new_frames(self):
        client = StreamClient(capacity=4)
        client.close()
        assert client.get(timeout=0.0) is None
        client._offer(StreamFrame(1, "mark", {}))
        assert client.get(timeout=0.0) is None


class TestStreamPublisher:
    def test_ring_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StreamPublisher(ring_capacity=0)

    def test_ids_are_monotonic_in_publish_order(self):
        publisher = StreamPublisher()
        ids = [
            publisher.publish("mark", {"n": n}).event_id for n in range(5)
        ]
        assert ids == [1, 2, 3, 4, 5]
        assert publisher.last_event_id == 5

    def test_attach_replays_ring_past_last_event_id(self):
        publisher = StreamPublisher()
        for n in range(5):
            publisher.publish("mark", {"n": n})
        client = publisher.attach(last_event_id=2)
        assert [frame.event_id for frame in _drain(client)] == [3, 4, 5]

    def test_replay_gap_when_the_ring_evicted_frames(self):
        publisher = StreamPublisher(ring_capacity=3)
        for n in range(5):
            publisher.publish("mark", {"n": n})
        client = publisher.attach(last_event_id=0)
        # Frames 1-2 fell off the ring: replay starts at the oldest
        # retained frame and the gap is visible as non-contiguous ids.
        assert [frame.event_id for frame in _drain(client)] == [3, 4, 5]

    def test_detach_is_idempotent_and_updates_client_count(self):
        publisher = StreamPublisher()
        client = publisher.attach()
        assert publisher.client_count == 1
        publisher.detach(client)
        publisher.detach(client)
        assert publisher.client_count == 0

    def test_slow_client_drops_are_counted_and_mirrored(self):
        profiler = BusProfiler()
        publisher = StreamPublisher(profiler=profiler)
        publisher.attach(capacity=2)
        for n in range(10):
            publisher.publish("mark", {"n": n})
        assert publisher.dropped_total == 8
        assert profiler.dropped_events == 8
        assert publisher.snapshot()["dropped_total"] == 8

    def test_snapshot_shape(self):
        publisher = StreamPublisher()
        publisher.publish("mark", {})
        snapshot = publisher.snapshot()
        assert snapshot == {
            "clients": 0,
            "last_event_id": 1,
            "dropped_total": 0,
            "ring_size": 1,
        }

    def test_mirror_forwards_frames_under_its_own_ids(self):
        hub = StreamPublisher()
        hub.publish("job", {})  # the hub has its own history
        local = StreamPublisher(mirror=hub)
        frame = local.publish("score", {"source": "m"})
        assert frame.event_id == 1  # run-local sequence stays pure
        mirrored = hub.attach(last_event_id=0)
        frames = _drain(mirrored)
        assert [f.event_id for f in frames] == [1, 2]
        assert frames[1].type == "score"
        assert frames[1].payload == {"source": "m"}

    def test_bus_subscriber_surface_maps_events_to_frames(self):
        publisher = StreamPublisher()
        client = publisher.attach()
        publisher.on_event(
            CacheEvent(1, EventKind.HIT, 1, 0, 0, 0x40, False, False)
        )
        publisher.on_event(
            CacheEvent(2, EventKind.FAULT, 1, 0, 0, 0x80, False, False)
        )
        publisher.on_mark("epoch")
        publisher.finish()
        types = [frame.type for frame in _drain(client)]
        assert types == ["cache_event", "fault", "mark", "finish"]


class TestAmbientBinding:
    def test_bind_returns_previous_and_restores(self):
        first = StreamPublisher()
        second = StreamPublisher()
        assert active_publisher() is None
        previous = bind_publisher(first)
        try:
            assert previous is None
            assert active_publisher() is first
            inner = bind_publisher(second)
            assert inner is first
            bind_publisher(inner)
            assert active_publisher() is first
        finally:
            bind_publisher(None)
        assert active_publisher() is None

    def test_publish_ambient_is_a_noop_when_unbound(self):
        publish_ambient("progress", {"stage": "nowhere"})  # must not raise

    def test_publish_ambient_reaches_the_bound_publisher(self):
        publisher = StreamPublisher()
        client = publisher.attach()
        bind_publisher(publisher)
        try:
            publish_ambient("progress", {"stage": "sweep_point"})
        finally:
            bind_publisher(None)
        frames = _drain(client)
        assert [frame.type for frame in frames] == ["progress"]
        assert frames[0].payload["stage"] == "sweep_point"


class TestSlowSubscriberCannotStallTheEngine:
    """The hardening regression: a stream consumer that never reads must
    not block a replay; its bounded queue drops the oldest frames and the
    loss is surfaced on the profiler instead."""

    def test_run_trace_outpaces_a_sleeping_subscriber(self, xeon):
        num_accesses = 3000
        profiler = BusProfiler()
        publisher = StreamPublisher(profiler=profiler)
        sleeping = publisher.attach(capacity=64)  # never read
        bus = xeon.attach_telemetry(TelemetryBus())
        bus.subscribe(profiler)
        bus.subscribe(publisher)
        try:
            result = replay(xeon, random_trace(num_accesses, seed=3), owner=0)
        finally:
            bus.close()
            xeon.detach_telemetry()
        assert len(result) == num_accesses
        assert len(_drain(sleeping)) == 64
        assert sleeping.dropped == publisher.dropped_total > 0
        assert profiler.dropped_events == publisher.dropped_total
        assert profiler.summary()["dropped_events"] > 0
