"""Scheduler concurrency semantics: dedup, backpressure, cancellation.

Timing-sensitive scenarios are made deterministic with the
``gated_count`` fake (tests/fake_experiments.py): a computation blocks
on a gate file, so the test controls exactly when work is "in flight",
and the fake's invocation log is ground truth for how many computations
actually ran and in which order.
"""

import sys
import threading
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.service.scheduler import (
    JobScheduler,
    JobSpec,
    JobState,
    QueueFullError,
    UnknownJobError,
)
from repro.service.store import ResultStore
from tests.fake_experiments import COUNT_FILE_ENV, GATE_FILE_ENV

GATED = "tests.fake_experiments:gated_count"
WELL_BEHAVED = "tests.fake_experiments:well_behaved"
RAISES = "tests.fake_experiments:raises_error"
SLEEPS = "tests.fake_experiments:sleeps_forever"

WAIT = 30.0  # generous terminal-state budget; tests finish far sooner


class Gate:
    """Handle on the gated_count fake's gate and invocation log."""

    def __init__(self, tmp_path):
        self.count_file = tmp_path / "invocations"
        self.gate_file = tmp_path / "gate"

    def open(self):
        self.gate_file.write_text("go")

    def invocations(self):
        if not self.count_file.exists():
            return []
        return self.count_file.read_text().split()


@pytest.fixture
def gate(tmp_path, monkeypatch):
    handle = Gate(tmp_path)
    monkeypatch.setenv(COUNT_FILE_ENV, str(handle.count_file))
    monkeypatch.setenv(GATE_FILE_ENV, str(handle.gate_file))
    return handle


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.01)


def finish(scheduler, jobs):
    return [scheduler.wait(job.job_id, WAIT) for job in jobs]


class TestDeduplication:
    def test_identical_concurrent_submissions_compute_once(self, gate, store):
        with JobScheduler(store, workers=2) as scheduler:
            spec = JobSpec.create("fake", entry_point=GATED, seed=0)
            jobs = [scheduler.submit(spec) for _ in range(6)]
            # The computation is provably in flight (it logged its
            # invocation) and blocked; all later submissions coalesced.
            eventually(lambda: len(gate.invocations()) == 1)
            gate.open()
            done = finish(scheduler, jobs)
            assert [job.state for job in done] == [JobState.DONE] * 6
            assert gate.invocations() == ["0"]  # exactly one ran
            assert scheduler.counters["computations"] == 1
            assert scheduler.counters["deduplicated"] == 5
            assert len(store) == 1

    def test_completed_key_is_served_from_store(self, gate, store):
        gate.open()
        spec = JobSpec.create("fake", entry_point=GATED, seed=0)
        with JobScheduler(store, workers=1) as scheduler:
            first = scheduler.submit(spec)
            finish(scheduler, [first])
        # A fresh scheduler on the same store: pure memoisation.
        with JobScheduler(store, workers=1) as scheduler:
            job = scheduler.submit(spec)
            assert job.state == JobState.DONE
            assert job.source == "store"
            assert scheduler.counters["computations"] == 0

    def test_corrupt_stored_blob_self_heals(self, gate, store):
        gate.open()
        spec = JobSpec.create("fake", entry_point=GATED, seed=0)
        with JobScheduler(store, workers=1) as scheduler:
            finish(scheduler, [scheduler.submit(spec)])
        blob = store.root / (spec.key + ".json")
        blob.write_text("{\"truncated")
        with JobScheduler(store, workers=1) as scheduler:
            job = scheduler.submit(spec)
            (job,) = finish(scheduler, [job])
            assert job.state == JobState.DONE
            assert job.source == "computed"  # recomputed, not served
            assert scheduler.counters["computations"] == 1
        assert store.stats.corrupt_discarded == 1
        assert store.get(spec.key) is not None  # healthy again


class TestBackpressure:
    def test_queue_full_rejection_is_deterministic(self, gate, store):
        with JobScheduler(
            store, workers=1, queue_depth=2
        ) as scheduler:
            running = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=0)
            )
            eventually(lambda: len(gate.invocations()) == 1)
            queued = [
                scheduler.submit(
                    JobSpec.create("fake", entry_point=GATED, seed=seed)
                )
                for seed in (1, 2)
            ]
            # Worker busy + queue at depth: the next distinct key
            # must be rejected, every time.
            with pytest.raises(QueueFullError, match="queue is full"):
                scheduler.submit(
                    JobSpec.create("fake", entry_point=GATED, seed=3)
                )
            assert scheduler.counters["rejected"] == 1
            # Coalescing and store hits cost no queue slot: an
            # identical submission still succeeds at full depth.
            rider = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=1)
            )
            assert rider.source == "coalesced"
            gate.open()
            done = finish(scheduler, [running, *queued, rider])
            assert all(job.state == JobState.DONE for job in done)
            assert sorted(gate.invocations()) == ["0", "1", "2"]

    def test_priority_orders_the_backlog(self, gate, store):
        with JobScheduler(store, workers=1) as scheduler:
            jobs = [
                scheduler.submit(
                    JobSpec.create("fake", entry_point=GATED, seed=0)
                )
            ]
            eventually(lambda: len(gate.invocations()) == 1)
            jobs.append(scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=1),
                priority=0,
            ))
            jobs.append(scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=2),
                priority=5,
            ))
            gate.open()
            finish(scheduler, jobs)
            # seed 2 (priority 5) must run before seed 1 (priority 0).
            assert gate.invocations() == ["0", "2", "1"]


class TestCancellation:
    def test_cancelling_queued_job_leaves_store_consistent(self, gate, store):
        with JobScheduler(store, workers=1) as scheduler:
            running = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=0)
            )
            eventually(lambda: len(gate.invocations()) == 1)
            victim_spec = JobSpec.create("fake", entry_point=GATED, seed=7)
            victim = scheduler.submit(victim_spec)
            assert scheduler.cancel(victim.job_id)
            assert victim.state == JobState.CANCELLED
            gate.open()
            finish(scheduler, [running])
            scheduler.join()
            # The cancelled computation never ran and wrote nothing.
            assert "7" not in gate.invocations()
            assert victim_spec.key not in store
            assert len(store) == 1
            snapshot = scheduler.snapshot()
            assert snapshot["queued"] == 0
            assert snapshot["cancelled"] == 1

    def test_cancelling_one_rider_keeps_the_computation(self, gate, store):
        with JobScheduler(store, workers=1) as scheduler:
            blocker = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=0)
            )
            eventually(lambda: len(gate.invocations()) == 1)
            spec = JobSpec.create("fake", entry_point=GATED, seed=9)
            owner = scheduler.submit(spec)
            rider = scheduler.submit(spec)
            assert rider.source == "coalesced"
            assert scheduler.cancel(rider.job_id)
            gate.open()
            done = finish(scheduler, [blocker, owner])
            assert [job.state for job in done] == [JobState.DONE] * 2
            assert rider.state == JobState.CANCELLED
            assert spec.key in store  # computation still happened

    def test_running_jobs_cannot_be_cancelled(self, gate, store):
        with JobScheduler(store, workers=1) as scheduler:
            job = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=0)
            )
            eventually(lambda: len(gate.invocations()) == 1)
            assert not scheduler.cancel(job.job_id)
            gate.open()
            (job,) = finish(scheduler, [job])
            assert job.state == JobState.DONE

    def test_unknown_job_id_raises(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            with pytest.raises(UnknownJobError, match="job-999999"):
                scheduler.cancel("job-999999")


class TestFailuresAndValidation:
    def test_failed_computation_reports_and_stores_nothing(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            job = scheduler.submit(
                JobSpec.create("fake", entry_point=RAISES, seed=0)
            )
            (job,) = finish(scheduler, [job])
            assert job.state == JobState.FAILED
            assert "deliberate failure" in job.error
            assert scheduler.counters["failed"] == 1
            assert len(store) == 0

    def test_unknown_experiment_is_rejected_at_submit(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            with pytest.raises(ConfigurationError, match="available"):
                scheduler.submit(JobSpec.create("not-a-thing"))

    def test_submit_before_start_is_rejected(self, store):
        scheduler = JobScheduler(store, workers=1)
        with pytest.raises(ConfigurationError, match="not running"):
            scheduler.submit(JobSpec.create("fig6"))

    def test_isolated_jobs_inherit_the_runner_timeout(self, store):
        with JobScheduler(
            store, workers=1, isolate=True
        ) as scheduler:
            job = scheduler.submit(
                JobSpec.create(
                    "fake", entry_point=SLEEPS, seed=0, timeout=0.5
                )
            )
            job = scheduler.wait(job.job_id, WAIT)
            assert job.state == JobState.FAILED
            assert "timeout" in job.error

    def test_stop_fails_still_queued_jobs(self, gate, store):
        scheduler = JobScheduler(store, workers=1)
        scheduler.start()
        running = scheduler.submit(
            JobSpec.create("fake", entry_point=GATED, seed=0)
        )
        eventually(lambda: len(gate.invocations()) == 1)
        queued = scheduler.submit(
            JobSpec.create("fake", entry_point=GATED, seed=1)
        )
        gate.open()
        scheduler.wait(running.job_id, WAIT)
        scheduler.stop()
        assert queued.state in (JobState.CANCELLED, JobState.DONE)

    def test_restart_runs_nothing_stop_cancelled(self, gate, store):
        scheduler = JobScheduler(store, workers=1)
        scheduler.start()
        scheduler.submit(JobSpec.create("fake", entry_point=GATED, seed=0))
        eventually(lambda: len(gate.invocations()) == 1)
        queued = scheduler.submit(
            JobSpec.create("fake", entry_point=GATED, seed=1)
        )
        scheduler.stop()
        assert scheduler.snapshot()["queued"] == 0
        gate.open()
        with scheduler:
            fresh = scheduler.submit(
                JobSpec.create("fake", entry_point=GATED, seed=2)
            )
            assert scheduler.wait(fresh.job_id, WAIT).state == JobState.DONE
        assert queued.state == JobState.CANCELLED
        assert "1" not in gate.invocations()


class TestConcurrency:
    def test_concurrent_submitters_compute_each_key_once(self, store):
        # More threads than cores, switching every 10 us: a submission
        # that raced a worker's finish under a broken lock would compute
        # a key twice or lose a counter update.
        keys, rounds, submitters = 6, 5, 8
        specs = [
            JobSpec.create("fake", entry_point=WELL_BEHAVED, seed=seed)
            for seed in range(keys)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobScheduler(
                store, workers=4, queue_depth=keys
            ) as scheduler:
                jobs = []

                def submit_all(offset):
                    for index in range(rounds * keys):
                        spec = specs[(offset + index) % keys]
                        jobs.append(scheduler.submit(spec))

                threads = [
                    threading.Thread(target=submit_all, args=(offset,))
                    for offset in range(submitters)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=WAIT)
                assert not any(thread.is_alive() for thread in threads)
                done = finish(scheduler, jobs)
                snapshot = scheduler.snapshot()
        finally:
            sys.setswitchinterval(previous)
        total = keys * rounds * submitters
        assert len(done) == total
        assert all(job.state == JobState.DONE for job in done)
        counters = scheduler.counters
        assert counters["submitted"] == counters["completed"] == total
        assert counters["computations"] == keys
        assert (
            counters["computations"]
            + counters["deduplicated"]
            + counters["store_served"]
        ) == total
        assert (snapshot["queued"], snapshot["running"]) == (0, 0)
        assert len(store) == keys
