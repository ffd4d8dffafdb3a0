"""HTTP API surface: routes, status codes, and bit-identical serving."""

import email.utils
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import QUICK
from repro.experiments.registry import run_experiment
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServiceApp, make_server
from repro.service.store import ResultStore
from tests.fake_experiments import COUNT_FILE_ENV, GATE_FILE_ENV

WELL_BEHAVED = "tests.fake_experiments:well_behaved"
GATED = "tests.fake_experiments:gated_count"


@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port; yields its client."""
    store = ResultStore(tmp_path / "store")
    app = ServiceApp(store, workers=2, queue_depth=8)
    with app:
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


class TestRoutes:
    def test_experiments_lists_the_registry(self, service):
        experiments = service.experiments()
        assert "fig6" in experiments
        assert "table4" in experiments

    def test_submit_wait_and_fetch_result(self, service):
        job = service.submit(
            "fake", entry_point=WELL_BEHAVED, seed=5, wait=True
        )
        assert job["state"] == "done"
        assert job["source"] == "computed"
        result = service.result(str(job["result_key"]))
        assert isinstance(result, ExperimentResult)
        assert result.rows == [[5]]
        record = service.job(str(job["job_id"]))
        assert record["state"] == "done"

    def test_results_are_bit_identical_to_a_direct_run(self, service):
        job = service.submit("table4", profile="quick", seed=3, wait=True)
        assert job["state"] == "done"
        served = service.result_bytes(str(job["result_key"]))
        direct = run_experiment("table4", profile="quick", seed=3)
        assert served == direct.to_json().encode("utf-8")

    def test_identical_resubmission_is_served_from_store(self, service):
        first = service.submit(
            "fake", entry_point=WELL_BEHAVED, seed=1, wait=True
        )
        computations = service.healthz()["scheduler"]["computations"]
        second = service.submit(
            "fake", entry_point=WELL_BEHAVED, seed=1, wait=True
        )
        assert second["state"] == "done"
        assert second["source"] == "store"
        assert second["result_key"] == first["result_key"]
        after = service.healthz()["scheduler"]["computations"]
        assert after == computations  # no new work for the warm hit

    def test_healthz_shape(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        for section in ("scheduler", "store", "telemetry"):
            assert isinstance(health[section], dict)
        assert health["scheduler"]["workers"] == 2

    def test_metrics_exposition(self, service):
        service.submit("fake", entry_point=WELL_BEHAVED, seed=2, wait=True)
        text = service.metrics_text()
        for series in (
            "repro_service_jobs_submitted_total",
            "repro_service_queued",
            "repro_service_store_hits_total",
            "repro_service_store_hit_rate",
            "repro_service_bus_events_total",
            "repro_service_uptime_seconds",
        ):
            assert series in text
        assert 'repro_service_bus_events_total{kind="miss"} 1' in text

    def test_keep_alive_requests_do_not_stall(self, service):
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # each body waits for the client's delayed ACK (~40 ms on Linux).
        address = urllib.parse.urlsplit(service.base_url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )
        latencies = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020


class TestErrorCodes:
    def test_unknown_experiment_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("not-a-thing")
        assert excinfo.value.status == 400

    def test_malformed_body_is_400(self, service):
        request = urllib.request.Request(
            service.base_url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_removed_engine_is_400(self, service):
        profile = dict(QUICK.to_dict(), engine="batch")
        with pytest.raises(ServiceError) as excinfo:
            service.submit("table4", profile=profile)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_missing_experiment_id_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("POST", "/jobs", {"seed": 1}, ok=(200, 202))
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.job("job-424242")
        assert excinfo.value.status == 404

    def test_invalid_result_key_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.result_bytes("../../etc/passwd")
        assert excinfo.value.status == 400

    def test_absent_result_key_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.result_bytes("0" * 64)
        assert excinfo.value.status == 404

    def test_unrouted_paths_are_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unmapped_exception_is_500_internal(self, service, monkeypatch):
        def explode(self, payload):
            raise RuntimeError("not a ReproError")

        monkeypatch.setattr(ServiceApp, "submit", explode)
        address = urllib.parse.urlsplit(service.base_url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/jobs", body=json.dumps({"experiment_id": "table4"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            envelope = json.loads(response.read().decode("utf-8"))
            assert response.status == 500
            assert envelope["error"]["code"] == "internal"
            # The connection stays open for the next request.
            sock = connection.sock
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert connection.sock is sock
        finally:
            connection.close()


def _connect(client):
    """A raw socket to the service behind ``client``."""
    address = urllib.parse.urlsplit(client.base_url)
    return socket.create_connection((address.hostname, address.port), timeout=10)


def _read_response(reader):
    """``(status, headers, body)`` of one response read off ``reader``."""
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1")
        if line in ("\r\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _exchange(client, data):
    """Send ``data`` on a fresh connection; ``(status, headers, body, closed)``.

    ``closed`` is whether the server closed the connection after it
    answered.
    """
    with _connect(client) as sock, sock.makefile("rb") as reader:
        sock.sendall(data)
        status, headers, body = _read_response(reader)
        try:
            closed = reader.read(1) == b""
        except ConnectionResetError:
            closed = True
    return status, headers, body, closed


def _envelope_code(body):
    envelope = json.loads(body.decode("utf-8"))
    assert set(envelope) == {"error"}
    assert set(envelope["error"]) == {"code", "message"}
    return envelope["error"]["code"]


class TestHTTPLayer:
    """The request parsing, caps and connection handling, over raw sockets."""

    def test_response_carries_server_and_english_date(self, service):
        status, headers, _, _ = _exchange(
            service, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert status == 200
        assert headers["server"].startswith("repro-service/1 Python/")
        date = email.utils.parsedate_to_datetime(headers["date"])
        assert abs(date.timestamp() - time.time()) < 60
        assert headers["date"] == email.utils.format_datetime(date, usegmt=True)

    def test_malformed_request_line_is_400_envelope(self, service):
        status, headers, body, closed = _exchange(service, b"garbage\r\n\r\n")
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert _envelope_code(body) == "bad_request"
        assert closed

    def test_overlong_request_line_is_414_envelope(self, service):
        line = b"GET /" + b"a" * 65536  # 65,541 bytes and no line end yet
        status, _, body, closed = _exchange(service, line)
        assert status == 414
        assert _envelope_code(body) == "uri_too_long"
        assert closed

    def test_too_many_headers_is_431_envelope(self, service):
        headers = b"".join(b"X-H%d: v\r\n" % n for n in range(101))
        status, _, body, closed = _exchange(
            service, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 431
        assert _envelope_code(body) == "headers_too_large"
        assert closed

    def test_a_hundred_headers_are_accepted(self, service):
        headers = b"".join(b"X-H%d: v\r\n" % n for n in range(99))
        status, _, _, _ = _exchange(
            service,
            b"GET /healthz HTTP/1.1\r\n" + headers
            + b"Connection: close\r\n\r\n",
        )
        assert status == 200

    def test_overlong_header_line_is_431_envelope(self, service):
        status, _, body, closed = _exchange(
            service, b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65536
        )
        assert status == 431
        assert _envelope_code(body) == "headers_too_large"
        assert closed

    def test_unknown_method_is_501_envelope(self, service):
        status, _, body, closed = _exchange(service, b"BREW /pot HTTP/1.1\r\n\r\n")
        assert status == 501
        assert _envelope_code(body) == "not_implemented"
        assert closed

    def test_malformed_content_length_is_400_envelope(self, service):
        status, _, body, closed = _exchange(
            service, b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        )
        assert status == 400
        assert _envelope_code(body) == "bad_request"
        assert closed

    def test_http_1_0_closes_the_connection(self, service):
        status, _, _, closed = _exchange(service, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200
        assert closed

    def test_http_1_0_keep_alive_keeps_the_connection(self, service):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with _connect(service) as sock, sock.makefile("rb") as reader:
            for _ in range(2):
                sock.sendall(request)
                assert _read_response(reader)[0] == 200

    def test_connection_close_is_honoured(self, service):
        status, _, _, closed = _exchange(
            service, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert status == 200
        assert closed

    def test_three_requests_on_one_keep_alive_socket(self, service):
        with _connect(service) as sock, sock.makefile("rb") as reader:
            for path in (b"/healthz", b"/experiments", b"/healthz"):
                sock.sendall(b"GET " + path + b" HTTP/1.1\r\n\r\n")
                status, headers, body = _read_response(reader)
                assert status == 200
                assert "connection" not in headers
                json.loads(body.decode("utf-8"))

    def test_expect_100_continue_answers_before_the_body(self, service):
        body = json.dumps({
            "experiment_id": "fake", "entry_point": WELL_BEHAVED,
            "seed": 21, "wait": True,
        }).encode("utf-8")
        with _connect(service) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
                b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            # The body is not sent yet, so this reply cannot be the final one.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _, reply = _read_response(reader)
        assert status == 200
        assert json.loads(reply.decode("utf-8"))["state"] == "done"

    def test_unread_body_does_not_corrupt_the_next_request(self, service):
        with _connect(service) as sock, sock.makefile("rb") as reader:
            body = b'{"experiment_id": "fig6"}'
            sock.sendall(
                b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                + body + b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            status, _, body = _read_response(reader)
            assert status == 404
            assert _envelope_code(body) == "not_found"
            status, _, body = _read_response(reader)
            assert status == 200
            assert json.loads(body.decode("utf-8"))["status"] == "ok"


class TestBackpressureOverHTTP:
    @pytest.fixture
    def tight_service(self, tmp_path, monkeypatch):
        """workers=1, queue_depth=1, with the gate fake wired up."""
        monkeypatch.setenv(COUNT_FILE_ENV, str(tmp_path / "invocations"))
        monkeypatch.setenv(GATE_FILE_ENV, str(tmp_path / "gate"))
        store = ResultStore(tmp_path / "store")
        app = ServiceApp(store, workers=1, queue_depth=1)
        with app:
            server = make_server(app)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            host, port = server.server_address[:2]
            try:
                yield ServiceClient(f"http://{host}:{port}"), tmp_path
            finally:
                (tmp_path / "gate").write_text("go")  # release stragglers
                time.sleep(0.05)
                server.shutdown()
                server.server_close()

    def _wait_running(self, client):
        deadline = time.monotonic() + 10
        while client.healthz()["scheduler"]["running"] != 1:
            assert time.monotonic() < deadline, "job never started running"
            time.sleep(0.01)

    def test_queue_full_is_429_with_retry_after(self, tight_service):
        client, tmp_path = tight_service
        running = client.submit("fake", entry_point=GATED, seed=0)
        assert running["state"] in ("queued", "running")
        self._wait_running(client)
        queued = client.submit("fake", entry_point=GATED, seed=1)
        assert queued["state"] == "queued"
        body = json.dumps(
            {"experiment_id": "fake", "entry_point": GATED, "seed": 2}
        ).encode()
        request = urllib.request.Request(
            client.base_url + "/jobs", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 429
            retry_after = error.headers.get("Retry-After")
        # The hint is derived from queue depth / worker count, not a
        # constant: 1 running + 1 queued + the rejected one over a
        # single worker must wait at least the nominal seconds-per-job.
        assert retry_after is not None
        hinted = int(retry_after)
        assert 1 <= hinted <= 60
        expected = client.healthz()["scheduler"]["retry_after_seconds"]
        assert hinted == expected
        (tmp_path / "gate").write_text("go")
        assert client.wait(str(queued["job_id"]))["state"] == "done"

    def test_cancel_endpoint(self, tight_service):
        client, tmp_path = tight_service
        client.submit("fake", entry_point=GATED, seed=0)
        self._wait_running(client)
        queued = client.submit("fake", entry_point=GATED, seed=3)
        cancelled = client.cancel(str(queued["job_id"]))
        assert cancelled["cancelled"] is True
        assert cancelled["state"] == "cancelled"
        # A second cancel cannot take effect: 409 with the final state.
        again = client.cancel(str(queued["job_id"]))
        assert again["cancelled"] is False
        (tmp_path / "gate").write_text("go")
