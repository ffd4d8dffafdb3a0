"""HTTP API surface: routes, status codes, and bit-identical serving."""

import http.client
import json
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
        assert excinfo.value.code == 400

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
        assert excinfo.value.code == 429
        # The hint is derived from queue depth / worker count, not a
        # constant: 1 running + 1 queued + the rejected one over a
        # single worker must wait at least the nominal seconds-per-job.
        retry_after = excinfo.value.headers.get("Retry-After")
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
