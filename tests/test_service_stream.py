"""Live event streaming over the service API: SSE/NDJSON, resume, health.

Exercises the hub publisher end to end: scheduler ``job`` transition
frames, ``GET /events`` and ``GET /jobs/{id}/events`` with
``Last-Event-ID`` resume, framing negotiation, the streaming upgrade of
``GET /jobs/{id}``, the orchestration block on ``/healthz`` (and its 503
while draining), and the stream series on ``/metrics``.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.client import ServiceClient
from repro.service.http import ServiceApp, make_server
from repro.service.stream import (
    JOB_FRAME,
    NDJSON_CONTENT_TYPE,
    SSE_CONTENT_TYPE,
    ServiceStream,
    negotiate_framing,
    parse_frame_line,
    write_chunk,
    write_stream,
)
from repro.telemetry.net import StreamFrame

WELL_BEHAVED = "tests.fake_experiments:well_behaved"


@pytest.fixture
def service(tmp_path):
    """A running service; yields ``(app, client)`` for white-box pokes."""
    from repro.service.store import ResultStore

    store = ResultStore(tmp_path / "store")
    app = ServiceApp(store, workers=2, queue_depth=8)
    with app:
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield app, ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


class TestNegotiateFraming:
    def test_format_param_wins_over_accept(self):
        assert negotiate_framing("text/event-stream", {"format": ["ndjson"]}) \
            == (False, NDJSON_CONTENT_TYPE)
        assert negotiate_framing("", {"format": ["sse"]}) \
            == (True, SSE_CONTENT_TYPE)

    def test_accept_header_selects_sse(self):
        assert negotiate_framing("text/event-stream", {}) \
            == (True, SSE_CONTENT_TYPE)

    def test_default_is_ndjson(self):
        assert negotiate_framing("", {}) == (False, NDJSON_CONTENT_TYPE)
        assert negotiate_framing("application/json", {}) \
            == (False, NDJSON_CONTENT_TYPE)


class TestServiceStreamUnit:
    def test_job_filter_matches_any_stamped_frame(self):
        accepts = ServiceStream.job_filter("job-1")
        assert accepts(StreamFrame(1, "score", {"job_id": "job-1"}))
        assert not accepts(StreamFrame(2, "score", {"job_id": "job-2"}))
        assert not accepts(StreamFrame(3, "score", {}))

    def test_job_state_filter_keeps_only_job_frames(self):
        accepts = ServiceStream.job_state_filter("job-1")
        assert accepts(StreamFrame(1, JOB_FRAME, {"job_id": "job-1"}))
        assert not accepts(StreamFrame(2, "score", {"job_id": "job-1"}))
        assert not accepts(StreamFrame(3, JOB_FRAME, {"job_id": "job-2"}))

    def test_type_filter_ands_with_the_job_filter(self):
        accepts = ServiceStream.type_filter(
            {"alarm", "flip"}, ServiceStream.job_filter("job-1")
        )
        assert accepts(StreamFrame(1, "alarm", {"job_id": "job-1"}))
        assert accepts(StreamFrame(2, "flip", {"job_id": "job-1"}))
        assert not accepts(StreamFrame(3, "alarm", {"job_id": "job-2"}))
        assert not accepts(StreamFrame(4, "cache_event", {"job_id": "job-1"}))
        alone = ServiceStream.type_filter(["alarm"])
        assert alone(StreamFrame(5, "alarm", {}))
        assert not alone(StreamFrame(6, "score", {}))

    def test_slow_client_drops_without_blocking_the_publisher(self):
        stream = ServiceStream(client_capacity=2)
        stream.attach()
        for n in range(10):
            stream.publisher.publish("mark", {"n": n})
        snapshot = stream.snapshot()
        assert snapshot["clients"] == 1
        assert snapshot["dropped_total"] == 8
        assert snapshot["last_event_id"] == 10

    def test_write_stream_terminates_the_chunked_body(self):
        stream = ServiceStream()
        client = stream.attach()
        stream.publisher.publish("mark", {"n": 0})
        stream.publisher.publish("mark", {"n": 1})
        buffer = io.BytesIO()
        sent = write_stream(buffer, client, sse=False, max_events=2)
        assert sent == 2
        body = buffer.getvalue()
        assert body.endswith(b"0\r\n\r\n")
        assert body.count(b'"type": "mark"') == 2

    def test_write_chunk_and_parse_frame_line(self):
        buffer = io.BytesIO()
        write_chunk(buffer, b"abc")
        write_chunk(buffer, b"")
        assert buffer.getvalue() == b"3\r\nabc\r\n0\r\n\r\n"
        assert parse_frame_line("") is None
        assert parse_frame_line(": keep-alive") is None
        assert parse_frame_line('{"id": 1, "type": "mark"}') == {
            "id": 1, "type": "mark"
        }


class TestJobFrames:
    def test_job_lifecycle_streams_queued_running_done(self, service):
        _, client = service
        job = client.submit(
            "fake", entry_point=WELL_BEHAVED, seed=11, wait=True
        )
        job_id = str(job["job_id"])
        frames = list(client.stream_events(job_id=job_id, max_events=3))
        assert [frame["type"] for frame in frames] == [JOB_FRAME] * 3
        assert [frame["state"] for frame in frames] == [
            "queued", "running", "done"
        ]
        assert all(frame["job_id"] == job_id for frame in frames)

    def test_server_wide_stream_resumes_from_last_event_id(self, service):
        _, client = service
        client.submit("fake", entry_point=WELL_BEHAVED, seed=12, wait=True)
        head = list(client.stream_events(last_event_id=0, max_events=2))
        assert [frame["id"] for frame in head] == [1, 2]
        tail = list(
            client.stream_events(last_event_id=head[-1]["id"], max_events=1)
        )
        assert tail[0]["id"] == 3  # contiguous with the resume cursor

    def test_unknown_job_stream_is_404_before_any_frames(self, service):
        _, client = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                client.base_url + "/jobs/job-999999/events", timeout=10
            )
        with excinfo.value as error:
            assert error.code == 404

    def test_job_get_upgrades_to_a_stream_with_stream_param(self, service):
        _, client = service
        job = client.submit(
            "fake", entry_point=WELL_BEHAVED, seed=13, wait=True
        )
        job_id = str(job["job_id"])
        with urllib.request.urlopen(
            client.base_url + f"/jobs/{job_id}?stream=1&max_events=1",
            timeout=10,
        ) as response:
            assert response.headers["Content-Type"] == NDJSON_CONTENT_TYPE
            frame = json.loads(response.readline())
        assert frame["type"] == JOB_FRAME
        assert frame["job_id"] == job_id
        assert frame["state"] == "queued"

    def test_sse_accept_header_selects_event_stream_framing(self, service):
        _, client = service
        job = client.submit(
            "fake", entry_point=WELL_BEHAVED, seed=14, wait=True
        )
        job_id = str(job["job_id"])
        request = urllib.request.Request(
            client.base_url + f"/jobs/{job_id}/events?max_events=2",
            headers={"Accept": SSE_CONTENT_TYPE},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"] == SSE_CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert "event: job" in body
        assert "id: " in body
        assert '"state": "queued"' in body


class TestTypeFilteredStreams:
    @pytest.fixture
    def small_queue_service(self, tmp_path):
        """A running service whose stream clients queue 8 frames each."""
        from repro.service.store import ResultStore

        app = ServiceApp(
            ResultStore(tmp_path / "store"), workers=1,
            stream=ServiceStream(client_capacity=8),
        )
        with app:
            server = make_server(app)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            host, port = server.server_address[:2]
            try:
                yield app, ServiceClient(f"http://{host}:{port}")
            finally:
                server.shutdown()
                server.server_close()

    def test_rare_frames_survive_a_flood_larger_than_the_queue(
        self, small_queue_service
    ):
        app, client = small_queue_service
        hub = app.stream.publisher
        unfiltered = app.stream.attach()  # never drained: shows the overflow
        received = []
        follower = threading.Thread(target=lambda: received.extend(
            client.stream_events(types=("alarm", "flip"), max_events=2, timeout=10)
        ))
        follower.start()
        deadline = time.monotonic() + 10
        while app.stream.snapshot()["clients"] < 2:
            assert time.monotonic() < deadline, "the follower never attached"
            time.sleep(0.01)
        hub.publish("alarm", {"job_id": "job-1", "time": 60})
        for n in range(64):
            hub.publish("cache_event", {"job_id": "job-1", "n": n})
        hub.publish("flip", {"job_id": "job-1", "time": 60})
        follower.join(timeout=10)
        app.stream.detach(unfiltered)
        assert [frame["type"] for frame in received] == ["alarm", "flip"]
        assert unfiltered.dropped > 0  # the flood did overflow a plain queue

    def test_job_stream_type_filter_ands_with_the_job(self, service):
        _, client = service
        first = client.submit("fake", entry_point=WELL_BEHAVED, seed=16, wait=True)
        client.submit("fake", entry_point=WELL_BEHAVED, seed=17, wait=True)
        job_id = str(first["job_id"])
        frames = list(client.stream_events(
            job_id=job_id, types=("job",), max_events=3, timeout=10
        ))
        assert [frame["state"] for frame in frames] == ["queued", "running", "done"]
        assert {frame["job_id"] for frame in frames} == {job_id}

    def test_empty_type_is_400(self, service):
        _, client = service
        for query in ("type=", "type=,"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    client.base_url + "/events?" + query, timeout=10
                )
            with excinfo.value as error:
                assert error.code == 400
                body = json.loads(error.read().decode("utf-8"))
            assert body["error"]["code"] == "bad_request"


class TestHealthAndMetrics:
    def test_healthz_carries_the_orchestration_block(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        orchestration = health["orchestration"]
        stream = orchestration["stream"]
        assert set(stream) == {
            "clients", "last_event_id", "dropped_total", "ring_size"
        }
        assert set(orchestration["counters"]) == {
            "alarms_total", "defense_flips_total"
        }
        assert set(orchestration["live"]) == {"aggregators", "responders"}

    def test_draining_service_reports_503_with_the_same_shape(self, service):
        app, client = service
        app.scheduler.begin_drain()
        health = client.healthz()
        assert health["status"] == "draining"
        assert "orchestration" in health
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(client.base_url + "/healthz", timeout=10)
        with excinfo.value as error:
            assert error.code == 503

    def test_metrics_expose_the_stream_and_orchestration_series(self, service):
        _, client = service
        client.submit("fake", entry_point=WELL_BEHAVED, seed=15, wait=True)
        text = client.metrics_text()
        for name in (
            "repro_stream_clients",
            "repro_stream_dropped_total",
            "repro_stream_last_event_id",
            "repro_alarms_total",
            "repro_defense_flips_total",
        ):
            assert f"\n{name} " in text or text.startswith(f"{name} "), name
