"""Fleet lease protocol: claims, heartbeats, expiry, dead-letter, drain.

Scheduler-level tests drive the supervisor synchronously against an
injected fake clock (``FleetState.clock``), so lease expiry and backoff
are exercised without wall-clock sleeps.  The HTTP tests run a real
server with a real :class:`~repro.service.worker.FleetWorker` thread.
"""

import threading
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import (
    FleetConfig,
    FleetUnavailableError,
    LeaseError,
    lease_backoff_seconds,
)
from repro.service.http import ServiceApp, make_server
from repro.service.metrics import render_prometheus
from repro.service.scheduler import JobScheduler, JobSpec, JobState
from repro.service.store import ResultStore
from repro.service.worker import FleetWorker
from tests.fake_experiments import seed_echo

SEED_ECHO = "tests.fake_experiments:seed_echo"
WAIT = 30.0

#: Supervisor interval long enough that only explicit ``supervise_once``
#: calls tick the fake-clock tests.
MANUAL = 3600.0


def echo_spec(seed=0):
    return JobSpec.create(
        experiment_id="echo", entry_point=SEED_ECHO, seed=seed
    )


def echo_result(seed=0):
    return seed_echo(seed=seed)


class FakeClock:
    """Injectable monotonic clock the tests march forward by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def fleet_scheduler(tmp_path, **config):
    """A started scheduler with a fake clock and one live fleet worker.

    Touching ``w-live`` before any submission keeps the in-process pool
    path stood down (live fleet workers own the queue), so tests drive
    claims deterministically through the lease protocol.
    """
    store = ResultStore(tmp_path / "store")
    config.setdefault("lease_ttl", 10.0)
    config.setdefault("supervisor_interval", MANUAL)
    scheduler = JobScheduler(
        store, workers=1, fleet=FleetConfig(**config)
    )
    scheduler.start()
    clock = FakeClock()
    scheduler.fleet.clock = clock
    scheduler.fleet.touch_worker("w-live")
    return scheduler, store, clock


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(lease_ttl=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(dead_letter_after=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(min_workers=-1)
        with pytest.raises(ConfigurationError):
            FleetConfig(backoff_cap=0)

    def test_derived_intervals(self):
        config = FleetConfig(lease_ttl=8.0)
        assert config.effective_worker_ttl == 8.0
        assert config.effective_supervisor_interval == pytest.approx(1.0)
        assert FleetConfig(lease_ttl=8.0, worker_ttl=2.0).effective_worker_ttl == 2.0
        tight = FleetConfig(lease_ttl=0.2)
        assert 0.02 <= tight.effective_supervisor_interval <= 0.2


class TestBackoff:
    def test_deterministic_and_capped(self):
        first = lease_backoff_seconds("k", 1, cap=5.0)
        assert first == lease_backoff_seconds("k", 1, cap=5.0)
        assert first > 0
        # The pre-jitter base doubles per attempt but never exceeds the
        # cap; jitter adds at most half the base on top.
        for attempt in range(1, 12):
            assert lease_backoff_seconds("k", attempt, cap=5.0) <= 5.0 * 1.5

    def test_jitter_varies_by_key(self):
        delays = {lease_backoff_seconds(f"k{i}", 3, cap=5.0) for i in range(8)}
        assert len(delays) > 1


class TestLeaseLifecycle:
    def test_claim_complete_stores_bit_identical_blob(self, tmp_path):
        scheduler, store, clock = fleet_scheduler(tmp_path)
        try:
            job = scheduler.submit(echo_spec(seed=5))
            grant = scheduler.fleet_claim("w-live")
            assert grant["lease"]["attempt"] == 1
            assert grant["job"]["entry_point"] == SEED_ECHO
            assert grant["job"]["seed"] == 5
            lease_id = grant["lease"]["lease_id"]
            scheduler.fleet_complete(
                lease_id,
                "w-live",
                echo_result(5).to_dict(),
                wall_seconds=0.25,
            )
            record = scheduler.job(job.job_id)
            assert record.state == JobState.DONE
            assert record.attempts == 1
            assert record.wall_seconds == 0.25
            assert record.lease_history[-1]["outcome"] == "completed"
            assert store.get_bytes(job.key) == (
                echo_result(5).to_json().encode("utf-8")
            )
        finally:
            scheduler.stop()

    def test_heartbeat_extends_the_lease(self, tmp_path):
        scheduler, _store, clock = fleet_scheduler(
            tmp_path, lease_ttl=10.0
        )
        try:
            scheduler.submit(echo_spec())
            grant = scheduler.fleet_claim("w-live")
            lease_id = grant["lease"]["lease_id"]
            # Without the renewal this would be 2s past expiry.
            clock.advance(8.0)
            renewed = scheduler.fleet_heartbeat(lease_id, "w-live")
            assert renewed["renewals"] == 1
            clock.advance(4.0)
            scheduler.supervise_once()
            assert lease_id in scheduler.fleet.leases
            assert scheduler.fleet.counters["leases_expired"] == 0
        finally:
            scheduler.stop()

    def test_foreign_worker_cannot_use_the_lease(self, tmp_path):
        scheduler, _store, _clock = fleet_scheduler(tmp_path)
        try:
            scheduler.submit(echo_spec())
            grant = scheduler.fleet_claim("w-live")
            lease_id = grant["lease"]["lease_id"]
            with pytest.raises(LeaseError):
                scheduler.fleet_heartbeat(lease_id, "w-other")
            with pytest.raises(LeaseError):
                scheduler.fleet_complete(
                    lease_id, "w-other", echo_result().to_dict()
                )
        finally:
            scheduler.stop()


class TestExpiryAndRedispatch:
    def test_expiry_redispatch_and_stale_upload_rejection(self, tmp_path):
        scheduler, store, clock = fleet_scheduler(
            tmp_path, lease_ttl=10.0, backoff_cap=5.0
        )
        try:
            job = scheduler.submit(echo_spec(seed=9))
            first = scheduler.fleet_claim("w-live")
            stale_id = first["lease"]["lease_id"]

            # TTL elapses without a heartbeat: the supervisor expires
            # the lease and parks the computation in backoff.
            clock.advance(10.5)
            scheduler.supervise_once()
            assert scheduler.fleet.counters["leases_expired"] == 1
            assert scheduler.fleet.counters["redispatches"] == 1
            assert scheduler.job(job.job_id).state == JobState.QUEUED

            # Not claimable until the backoff elapses.
            idle = scheduler.fleet_claim("w-live")
            assert idle["lease"] is None

            clock.advance(
                lease_backoff_seconds(job.key, 1, cap=5.0) + 0.01
            )
            scheduler.supervise_once()
            second = scheduler.fleet_claim("w-live")
            assert second["lease"]["attempt"] == 2

            # The original (expired) worker finishes anyway: its
            # upload quotes a dead lease and must bounce 409-style.
            with pytest.raises(LeaseError):
                scheduler.fleet_complete(
                    stale_id, "w-live", echo_result(9).to_dict()
                )
            assert scheduler.fleet.counters["uploads_rejected"] == 1
            assert store.get_bytes(job.key) is None

            scheduler.fleet_complete(
                second["lease"]["lease_id"],
                "w-live",
                echo_result(9).to_dict(),
            )
            record = scheduler.job(job.job_id)
            assert record.state == JobState.DONE
            history = [
                (entry["attempt"], entry["outcome"])
                for entry in record.lease_history
            ]
            assert history == [(1, "expired"), (2, "completed")]
            assert store.get_bytes(job.key) == (
                echo_result(9).to_json().encode("utf-8")
            )
        finally:
            scheduler.stop()

    def test_torn_upload_is_rejected_without_releasing_the_lease(
        self, tmp_path
    ):
        scheduler, store, _clock = fleet_scheduler(tmp_path)
        try:
            job = scheduler.submit(echo_spec(seed=3))
            grant = scheduler.fleet_claim("w-live")
            lease_id = grant["lease"]["lease_id"]
            with pytest.raises(ConfigurationError):
                scheduler.fleet_complete(
                    lease_id, "w-live", {"garbage": True}
                )
            # The lease survives (a torn upload looks like a worker
            # dying mid-upload; expiry will re-dispatch), the store
            # holds nothing, and a clean retry of the upload lands.
            assert lease_id in scheduler.fleet.leases
            assert store.get_bytes(job.key) is None
            scheduler.fleet_complete(
                lease_id, "w-live", echo_result(3).to_dict()
            )
            assert scheduler.job(job.job_id).state == JobState.DONE
        finally:
            scheduler.stop()

    def test_dead_letter_after_k_failed_leases(self, tmp_path):
        scheduler, store, clock = fleet_scheduler(
            tmp_path, lease_ttl=10.0, dead_letter_after=3
        )
        try:
            job = scheduler.submit(echo_spec(seed=13))
            for attempt in range(1, 4):
                # Claim may need the backoff promoted first.
                grant = scheduler.fleet_claim("w-live")
                assert grant["lease"]["attempt"] == attempt
                clock.advance(10.5)
                scheduler.supervise_once()
                clock.advance(
                    lease_backoff_seconds(
                        job.key, attempt, cap=5.0
                    )
                    + 0.01
                )
                scheduler.supervise_once()
            record = scheduler.job(job.job_id)
            assert record.state == JobState.DEAD_LETTER
            assert "dead-lettered after 3" in str(record.error)
            assert [
                entry["outcome"] for entry in record.lease_history
            ] == ["expired", "expired", "expired"]
            assert scheduler.fleet.counters["dead_letter"] == 1
            assert len(scheduler.fleet.dead_letters) == 1
            quarantined = scheduler.fleet.dead_letters[0]
            assert quarantined["key"] == job.key
            assert quarantined["lease_attempts"] == 3
            assert len(quarantined["lease_history"]) == 3
            assert store.get_bytes(job.key) is None
            # Terminal: nothing further to claim.
            assert (scheduler.fleet_claim("w-live"))["lease"] is None
        finally:
            scheduler.stop()

    def test_cancellation_racing_lease_expiry(self, tmp_path):
        """Cancel lands between expiry and re-claim: the job must never
        run again and the dead worker's late upload must not store."""

        scheduler, store, clock = fleet_scheduler(tmp_path)
        try:
            job = scheduler.submit(echo_spec(seed=21))
            grant = scheduler.fleet_claim("w-live")
            stale_id = grant["lease"]["lease_id"]
            clock.advance(10.5)
            scheduler.supervise_once()  # expired → backoff, QUEUED
            assert scheduler.job(job.job_id).state == JobState.QUEUED

            assert scheduler.cancel(job.job_id) is True
            assert scheduler.job(job.job_id).state == JobState.CANCELLED

            # The dead lease's upload bounces and stores nothing.
            with pytest.raises(LeaseError):
                scheduler.fleet_complete(
                    stale_id, "w-live", echo_result(21).to_dict()
                )
            assert store.get_bytes(job.key) is None

            # Backoff elapses: the cancelled computation must not be
            # promoted back onto the heap or claimed again.
            clock.advance(60.0)
            scheduler.supervise_once()
            assert (scheduler.fleet_claim("w-live"))["lease"] is None
            assert scheduler._queued == 0
        finally:
            scheduler.stop()


class TestDegradationLadder:
    def test_zero_workers_falls_back_to_in_process_pool(self, tmp_path):
        """No fleet workers ever seen: the pre-fleet path still serves."""

        store = ResultStore(tmp_path / "store")
        scheduler = JobScheduler(
            store, workers=1, fleet=FleetConfig(lease_ttl=10.0)
        )
        with scheduler:
            job = scheduler.submit(echo_spec(seed=7))
            record = scheduler.wait(job.job_id, timeout=WAIT)
            assert record.state == JobState.DONE
            assert record.lease_history == []
            assert store.get_bytes(job.key) == (
                echo_result(7).to_json().encode("utf-8")
            )

    def test_expired_fleet_worker_reenables_in_process_pool(self, tmp_path):
        """A fleet worker that vanishes hands the queue back in-process."""

        store = ResultStore(tmp_path / "store")
        scheduler = JobScheduler(
            store,
            workers=1,
            fleet=FleetConfig(lease_ttl=0.2, supervisor_interval=0.05),
        )
        with scheduler:
            scheduler.fleet.touch_worker("w-ghost")
            assert scheduler._fleet_engaged()
            job = scheduler.submit(echo_spec(seed=30))
            # The ghost never claims; once its worker TTL (= lease
            # TTL) lapses the in-process pool picks the job up.
            record = scheduler.wait(job.job_id, timeout=WAIT)
            assert record.state == JobState.DONE
            assert record.lease_history == []

    def test_min_workers_sheds_submissions_with_retry_hint(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scheduler = JobScheduler(
            store, workers=1, fleet=FleetConfig(min_workers=2)
        )
        with scheduler:
            scheduler.fleet.touch_worker("w-only")
            with pytest.raises(FleetUnavailableError) as excinfo:
                scheduler.submit(echo_spec())
            assert "1 live worker(s), 2 required" in str(excinfo.value)
            assert excinfo.value.retry_after >= 1
            assert scheduler.fleet.counters["shed"] == 1
            # The shed submission left no orphan records behind.
            assert scheduler._queued == 0
            assert not scheduler._inflight
            assert scheduler._jobs == {}

    def test_draining_sheds_new_work_but_finishes_leases(self, tmp_path):
        scheduler, _store, _clock = fleet_scheduler(tmp_path)
        try:
            job = scheduler.submit(echo_spec(seed=2))
            grant = scheduler.fleet_claim("w-live")
            scheduler.begin_drain()
            with pytest.raises(FleetUnavailableError):
                scheduler.submit(echo_spec(seed=99))
            # Drain-mode claims tell the worker to exit.
            assert (scheduler.fleet_claim("w-live"))["draining"]
            # The in-flight lease still completes normally.
            scheduler.fleet_complete(
                grant["lease"]["lease_id"],
                "w-live",
                echo_result(2).to_dict(),
            )
            assert scheduler.job(job.job_id).state == JobState.DONE
            assert scheduler.drain(timeout=1.0) is True
        finally:
            scheduler.stop()

    def test_retry_after_tracks_backlog_and_capacity(self, tmp_path):
        scheduler, _store, _clock = fleet_scheduler(tmp_path)
        try:
            idle_hint = scheduler.retry_after_seconds()
            assert 1 <= idle_hint <= 60
            for seed in range(6):
                scheduler.submit(echo_spec(seed=seed))
            loaded_hint = scheduler.retry_after_seconds()
            assert loaded_hint >= idle_hint
            # More live workers divide the backlog down.
            for index in range(7):
                scheduler.fleet.touch_worker(f"w-extra-{index}")
            assert scheduler.retry_after_seconds() <= loaded_hint
        finally:
            scheduler.stop()


class TestFleetOverHTTP:
    @pytest.fixture
    def service(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        app = ServiceApp(
            store,
            workers=1,
            queue_depth=16,
            fleet=FleetConfig(lease_ttl=5.0),
        )
        with app:
            server = make_server(app)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            host, port = server.server_address[:2]
            try:
                yield ServiceClient(f"http://{host}:{port}"), app
            finally:
                server.shutdown()
                server.server_close()

    def test_worker_completes_jobs_bit_identical(self, service):
        client, _app = service
        worker = FleetWorker(
            client.base_url, "w-http", poll_seconds=0.02, max_jobs=3
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            # Wait for the worker's first claim to register it live, so
            # the in-process pool stands down before anything queues.
            deadline = time.monotonic() + WAIT
            while client.fleet()["workers_live"] < 1:
                assert time.monotonic() < deadline, "worker never registered"
                time.sleep(0.01)
            jobs = [
                client.submit("echo", entry_point=SEED_ECHO, seed=seed)
                for seed in (1, 2, 3)
            ]
            records = [client.wait(str(job["job_id"])) for job in jobs]
            assert all(job["state"] == "done" for job in records)
            for seed, record in zip((1, 2, 3), records):
                served = client.result_bytes(str(record["result_key"]))
                assert served == echo_result(seed).to_json().encode("utf-8")
                assert record["lease_history"][-1]["worker_id"] == "w-http"
        finally:
            worker.stop()
            thread.join(timeout=WAIT)
        fleet = client.fleet()
        assert fleet["counters"]["fleet_completed"] == 3
        assert fleet["counters"]["leases_granted"] == 3
        workers = {entry["worker_id"] for entry in fleet["workers"]}
        assert "w-http" in workers

    def test_fleet_routes_and_error_codes(self, service):
        client, _app = service
        # A claim with nothing queued is an idle poll, not an error.
        grant = client.fleet_claim("w-poll")
        assert grant["lease"] is None
        assert grant["draining"] is False
        with pytest.raises(ServiceError) as excinfo:
            client.fleet_heartbeat("lease-bogus", "w-poll")
        assert excinfo.value.status == 409
        with pytest.raises(ServiceError) as excinfo:
            client.fleet_complete("lease-bogus", "w-poll", {"x": 1})
        assert excinfo.value.status == 409
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/fleet/claim", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "POST",
                "/fleet/leases/lease-x/fail",
                {"worker_id": "w", "error": ""},
            )
        assert excinfo.value.status == 400

    def test_healthz_and_metrics_carry_fleet_series(self, service):
        client, _app = service
        client.fleet_claim("w-metrics")
        health = client.healthz()
        fleet = health["scheduler"]["fleet"]
        assert fleet["workers_live"] >= 1
        assert fleet["draining"] is False
        assert "retry_after_seconds" in health["scheduler"]
        text = client.metrics_text()
        for series in (
            "repro_service_fleet_workers_live",
            'repro_service_fleet_worker_up{worker_id="w-metrics"} 1',
            "repro_service_fleet_leases_active",
            "repro_service_fleet_draining",
            "repro_service_fleet_leases_granted_total",
            "repro_service_fleet_leases_expired_total",
            "repro_service_fleet_redispatches_total",
            "repro_service_fleet_dead_letter_total",
            "repro_service_fleet_uploads_rejected_total",
            "repro_service_fleet_shed_total",
            "repro_service_retry_after_seconds",
        ):
            assert series in text, series


class TestMetricsRendering:
    def test_fleet_section_renders_without_workers(self):
        counters = {
            "submitted": 0,
            "queued": 0,
            "running": 0,
            "inflight_keys": 0,
            "workers": 1,
            "delayed": 0,
            "retry_after_seconds": 1,
            "fleet": {
                "workers": [],
                "workers_live": 0,
                "leases_active": 0,
                "leases": [],
                "dead_letters": [],
                "draining": False,
                "counters": {
                    "leases_granted": 0,
                    "leases_renewed": 0,
                    "leases_expired": 0,
                    "redispatches": 0,
                    "dead_letter": 0,
                    "uploads_rejected": 0,
                    "fleet_completed": 0,
                    "fleet_failed": 0,
                    "shed": 0,
                },
            },
        }
        text = render_prometheus(
            scheduler_counters=counters,
            store_counters={},
            telemetry=None,
            uptime_seconds=1.0,
        )
        assert "repro_service_fleet_workers_live 0" in text
        assert "repro_service_fleet_worker_up" in text
        assert "repro_service_fleet_dead_letter_total 0" in text


class TestSigtermDrain:
    def test_stop_cancels_outstanding_leases(self, tmp_path):
        """stop() after a failed drain leaves no waiter hanging."""

        scheduler, _store, _clock = fleet_scheduler(tmp_path)
        job = scheduler.submit(echo_spec(seed=77))
        scheduler.fleet_claim("w-live")
        assert scheduler.drain(timeout=0.05) is False
        scheduler.stop()
        record = scheduler.job(job.job_id)
        assert record.state == JobState.CANCELLED
        assert scheduler.fleet.leases == {}
