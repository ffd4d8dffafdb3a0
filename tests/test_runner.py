"""The parallel runner: determinism, manifests, fault handling."""

import json
import os

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import FULL, QUICK
from repro.experiments.registry import available_experiments
from repro.runner import (
    CRASH_RETRIES,
    EXPERIMENT_WEIGHTS,
    ManifestEntry,
    RunInterrupted,
    RunManifest,
    TaskSpec,
    crash_backoff_seconds,
    dispatch_order,
    plan_tasks,
    run_experiments,
    run_tasks,
)

#: Cheap quick-mode experiments (fractions of a second each).
CHEAP = ["table4", "fig7", "fig4"]


class TestPlanning:
    def test_one_task_per_experiment_by_default(self):
        tasks = plan_tasks(CHEAP, profile=QUICK, base_seed=3)
        assert [task.task_id for task in tasks] == CHEAP
        assert all(task.seed == 3 for task in tasks)

    def test_shard_seeds_are_derived_and_order_independent(self):
        tasks = plan_tasks(["fig7"], profile=QUICK, base_seed=5,
                           seeds_per_experiment=3)
        assert tasks[0].seed == 5  # shard 0 matches the serial run
        assert tasks[1].seed == derive_seed(5, "fig7/shard1")
        assert tasks[2].seed == derive_seed(5, "fig7/shard2")
        assert len({task.seed for task in tasks}) == 3

    def test_dispatch_order_is_heaviest_first(self):
        tasks = plan_tasks(["table4", "defenses", "fig6"], profile=QUICK)
        ordered = [task.experiment_id for task in dispatch_order(tasks)]
        assert ordered == ["defenses", "fig6", "table4"]

    def test_every_experiment_has_a_weight(self):
        assert sorted(EXPERIMENT_WEIGHTS) == sorted(available_experiments())

    def test_unknown_experiment_rejected_before_running(self):
        with pytest.raises(ConfigurationError, match="tablezzz"):
            run_experiments(["tablezzz"], profile=QUICK)

    def test_bad_shard_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSpec("x", "x", 0, QUICK, shard_index=2, num_shards=2)
        with pytest.raises(ConfigurationError):
            TaskSpec("x", "x", 0, QUICK, timeout=0)
        with pytest.raises(ConfigurationError):
            plan_tasks(["table4"], seeds_per_experiment=0)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_experiments(CHEAP, profile=QUICK, seed=0, jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_experiments(CHEAP, profile=QUICK, seed=0, jobs=3)

    def test_parallel_equals_serial(self, serial, parallel):
        for experiment_id in CHEAP:
            assert (
                parallel.entry(experiment_id).result.to_json()
                == serial.entry(experiment_id).result.to_json()
            ), experiment_id

    def test_entries_keep_plan_order(self, parallel):
        assert [entry.task_id for entry in parallel.entries] == CHEAP

    def test_parallel_entries_ran_on_workers(self, parallel):
        assert all(entry.worker_id is not None for entry in parallel.entries)

    def test_serial_entries_ran_in_process(self, serial):
        assert all(entry.worker_id is None for entry in serial.entries)


class TestManifest:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        return run_experiments(
            ["table4"], profile=QUICK, jobs=1, out_dir=out
        ), out

    def test_round_trips_losslessly(self, manifest):
        run, _ = manifest
        rebuilt = RunManifest.from_json(run.to_json())
        assert rebuilt.to_json() == run.to_json()
        assert rebuilt.entry("table4").result.to_json() == \
            run.entry("table4").result.to_json()

    def test_persisted_and_loadable(self, manifest):
        run, out = manifest
        loaded = RunManifest.load(out)
        assert loaded.to_json() == run.to_json()
        # The file itself is valid, schema-stamped JSON.
        data = json.loads((out / "manifest.json").read_text())
        assert data["schema_version"] == 1
        assert data["entries"][0]["result"]["schema_version"] == 1

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunManifest.load(tmp_path / "nowhere")

    def test_unknown_schema_version_raises(self, manifest):
        run, _ = manifest
        data = run.to_dict()
        data["schema_version"] = 999
        with pytest.raises(ConfigurationError):
            RunManifest.from_dict(data)

    def test_entry_lookup_unknown_task(self, manifest):
        run, _ = manifest
        with pytest.raises(ConfigurationError):
            run.entry("nope")
        with pytest.raises(ConfigurationError):
            run.result_for("nope")


class TestResultSerialization:
    def test_round_trip_preserves_json(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            paper_reference="r",
            columns=["k", "v"],
            rows=[["a", 1.5], ["b", (1, 2)]],
            notes="n",
            params={"trials": 10, "nested": (3, 4)},
            series={"samples": [(0, 1), (2, 3)]},
        )
        text = result.to_json()
        rebuilt = ExperimentResult.from_json(text)
        assert rebuilt.to_json() == text
        # Tuples normalise to lists, values survive.
        assert rebuilt.series["samples"] == [[0, 1], [2, 3]]
        assert rebuilt.params["trials"] == 10

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_json('{"schema_version": 42}')


class TestFaultHandling:
    def test_crash_is_retried_with_backoff_then_failed(self):
        tasks = [TaskSpec("boom", "fake", 0, QUICK,
                          entry_point="tests.fake_experiments:always_crash")]
        manifest = run_tasks(tasks, jobs=2)
        entry = manifest.entry("boom")
        assert entry.status == "failed"
        assert entry.attempts == 1 + CRASH_RETRIES
        assert "crashed" in entry.error
        # One recorded backoff per retry, growing exponentially.
        assert len(entry.backoff_history) == CRASH_RETRIES
        for earlier, later in zip(entry.backoff_history, entry.backoff_history[1:]):
            assert later > earlier
        # Backoffs are deterministic: same task id => same waits.
        assert entry.backoff_history == [
            crash_backoff_seconds("boom", attempt)
            for attempt in range(2, 2 + CRASH_RETRIES)
        ]

    def test_crash_once_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "crashed-once"
        os.environ["REPRO_TEST_CRASH_MARKER"] = str(marker)
        try:
            tasks = [TaskSpec("flaky", "fake", 7, QUICK,
                              entry_point="tests.fake_experiments:crash_once")]
            manifest = run_tasks(tasks, jobs=2)
        finally:
            del os.environ["REPRO_TEST_CRASH_MARKER"]
        entry = manifest.entry("flaky")
        assert entry.ok
        assert entry.attempts == 2
        assert entry.result.rows == [[7]]

    def test_timeout_kills_the_task(self):
        tasks = [
            TaskSpec("slow", "fake", 0, QUICK, timeout=1.0,
                     entry_point="tests.fake_experiments:sleeps_forever"),
            TaskSpec("fine", "fake", 1, QUICK,
                     entry_point="tests.fake_experiments:well_behaved"),
        ]
        manifest = run_tasks(tasks, jobs=2)
        assert manifest.entry("slow").status == "timeout"
        assert manifest.entry("slow").attempts == 1
        assert manifest.entry("fine").ok
        assert not manifest.ok
        assert [entry.task_id for entry in manifest.failures] == ["slow"]

    def test_deterministic_exception_not_retried(self):
        tasks = [TaskSpec("err", "fake", 0, QUICK,
                          entry_point="tests.fake_experiments:raises_error")]
        manifest = run_tasks(tasks, jobs=2)
        entry = manifest.entry("err")
        assert entry.status == "failed"
        assert entry.attempts == 1
        assert "deliberate failure" in entry.error

    def test_serial_path_records_failures_too(self):
        tasks = [TaskSpec("err", "fake", 0, QUICK,
                          entry_point="tests.fake_experiments:raises_error")]
        manifest = run_tasks(tasks, jobs=1)
        assert manifest.entry("err").status == "failed"
        assert "deliberate failure" in manifest.entry("err").error

    def test_bad_entry_point_strings(self):
        bad = TaskSpec("x", "fake", 0, QUICK, entry_point="no-colon")
        manifest = run_tasks([bad], jobs=1)
        assert manifest.entry("x").status == "failed"
        missing = TaskSpec("x", "fake", 0, QUICK,
                           entry_point="tests.fake_experiments:nope")
        manifest = run_tasks([missing], jobs=1)
        assert manifest.entry("x").status == "failed"


class TestMultiSeedSweep:
    def test_sweep_produces_distinct_shard_results(self):
        manifest = run_experiments(
            ["table2"], profile=QUICK, seed=0, jobs=2, seeds_per_experiment=2
        )
        assert [entry.task_id for entry in manifest.entries] == \
            ["table2", "table2#s1"]
        base = manifest.entry("table2")
        shard = manifest.entry("table2#s1")
        assert base.seed == 0
        assert shard.seed == derive_seed(0, "table2/shard1")
        # Shard 0 is exactly the serial single-seed result.
        from repro.experiments import run_experiment
        assert base.result.to_json() == \
            run_experiment("table2", profile=QUICK, seed=0).to_json()


class TestManifestRobustness:
    def _manifest(self):
        tasks = [TaskSpec("t", "fake", 0, QUICK,
                          entry_point="tests.fake_experiments:seed_echo")]
        return run_tasks(tasks, jobs=1)

    def test_save_is_atomic(self, tmp_path):
        manifest = self._manifest()
        path = manifest.save(tmp_path)
        assert path.name == "manifest.json"
        # The temporary file is always renamed away, never left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
        assert RunManifest.load(tmp_path).to_json() == manifest.to_json()

    def test_truncated_json_raises_manifest_error(self, tmp_path):
        from repro.common.errors import ManifestError

        manifest = self._manifest()
        path = manifest.save(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # a torn write
        with pytest.raises(ManifestError, match="truncated or corrupt"):
            RunManifest.load(tmp_path)

    def test_non_object_and_mangled_json_raise(self):
        from repro.common.errors import ManifestError

        with pytest.raises(ManifestError, match="JSON object"):
            RunManifest.from_json("[1, 2, 3]")
        with pytest.raises(ManifestError, match="required fields"):
            RunManifest.from_json(
                json.dumps({"schema_version": 1, "entries": [{}]})
            )

    def test_manifest_error_is_a_configuration_error(self):
        from repro.common.errors import ManifestError

        assert issubclass(ManifestError, ConfigurationError)

    def test_canonical_form_strips_volatile_fields(self):
        manifest = self._manifest()
        entry = manifest.entries[0]
        entry.wall_seconds = 123.0
        entry.worker_id = 5
        entry.attempts = 3
        entry.backoff_history = [0.25, 0.5]
        manifest.jobs = 8
        manifest.total_wall_seconds = 999.0
        other = self._manifest()
        assert manifest.to_json() != other.to_json()
        assert manifest.canonical_json() == other.canonical_json()


class _InterruptAfter:
    """Progress listener that simulates Ctrl-C after N finished tasks."""

    def __init__(self, after):
        self.after = after
        self.seen = 0

    def run_started(self, total, jobs):
        pass

    def task_started(self, task, worker_id):
        pass

    def task_retried(self, task, attempt, error):
        pass

    def task_finished(self, entry, done, total):
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt

    def run_finished(self, done, total, wall):
        pass


class TestInterruptAndResume:
    def _plan(self, entry_point="tests.fake_experiments:seed_echo"):
        return [
            TaskSpec(f"t{i}", "fake", 10 + i, QUICK, entry_point=entry_point)
            for i in range(3)
        ]

    def test_serial_interrupt_flushes_resumable_manifest(self, tmp_path):
        marker = tmp_path / "ran-once"
        os.environ["REPRO_TEST_INTERRUPT_MARKER"] = str(marker)
        out = tmp_path / "results"
        try:
            with pytest.raises(RunInterrupted) as excinfo:
                run_tasks(
                    self._plan("tests.fake_experiments:interrupt_after"),
                    jobs=1,
                    out_dir=out,
                )
        finally:
            del os.environ["REPRO_TEST_INTERRUPT_MARKER"]
        partial = excinfo.value.manifest
        assert partial is not None
        assert partial.interrupted
        assert [e.status for e in partial.entries] == \
            ["ok", "interrupted", "interrupted"]
        # The flush hit the disk atomically and loads back.
        assert RunManifest.load(out).canonical_json() == partial.canonical_json()

        # Resume: completed tasks are reused, the rest run; the merged
        # manifest is canonically identical to an uninterrupted run.
        resumed = run_tasks(self._plan(), jobs=1, out_dir=out, resume_from=out)
        uninterrupted = run_tasks(self._plan(), jobs=1)
        assert resumed.ok and not resumed.interrupted
        assert resumed.canonical_json() == uninterrupted.canonical_json()

    def test_pool_interrupt_terminates_and_flushes(self, tmp_path):
        out = tmp_path / "results"
        with pytest.raises(RunInterrupted) as excinfo:
            run_tasks(
                self._plan(), jobs=2, out_dir=out, progress=_InterruptAfter(1)
            )
        partial = excinfo.value.manifest
        assert partial is not None
        assert partial.interrupted
        assert len(partial.entries) == 3
        assert any(e.ok for e in partial.entries)
        resumed = run_tasks(self._plan(), jobs=1, resume_from=partial)
        uninterrupted = run_tasks(self._plan(), jobs=1)
        assert resumed.canonical_json() == uninterrupted.canonical_json()

    def test_resume_skips_completed_tasks(self):
        complete = run_tasks(self._plan(), jobs=1)
        # Resume with an always-crashing entry point: if any task were
        # re-executed it would fail, so success proves they were skipped.
        resumed = run_tasks(
            self._plan("tests.fake_experiments:always_crash"),
            jobs=1,
            resume_from=complete,
        )
        assert resumed.ok
        assert resumed.canonical_json() == complete.canonical_json()

    def test_resume_reruns_non_ok_entries(self):
        plan = self._plan()
        broken = run_tasks(
            self._plan("tests.fake_experiments:raises_error"), jobs=1
        )
        assert not broken.ok
        resumed = run_tasks(plan, jobs=1, resume_from=broken)
        assert resumed.ok
        assert resumed.canonical_json() == run_tasks(plan, jobs=1).canonical_json()


class TestEntryPointBinding:
    def test_experiment_id_bound_when_declared(self):
        tasks = [
            TaskSpec("a", "exp_alpha", 0, QUICK,
                     entry_point="tests.fake_experiments:echo_experiment_id"),
            TaskSpec("b", "exp_beta", 0, QUICK,
                     entry_point="tests.fake_experiments:echo_experiment_id"),
        ]
        manifest = run_tasks(tasks, jobs=1)
        assert manifest.entry("a").result.rows == [["exp_alpha"]]
        assert manifest.entry("b").result.rows == [["exp_beta"]]

    def test_plain_entry_points_unaffected(self):
        tasks = [TaskSpec("t", "fake", 4, QUICK,
                          entry_point="tests.fake_experiments:seed_echo")]
        assert run_tasks(tasks, jobs=1).entry("t").result.rows == [[4]]
