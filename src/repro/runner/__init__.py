"""Parallel experiment runner: fan experiments out, persist run manifests.

The one-call API::

    from repro.runner import run_experiments

    manifest = run_experiments(
        ["table2", "fig6"], profile="quick", jobs=4, out_dir="results"
    )
    print(manifest.result_for("fig6").render())

Seeds are pinned per task before anything executes (see
:mod:`repro.runner.sharding`), so a parallel run is bit-identical to a
serial one; the manifest (:mod:`repro.runner.manifest`) records every
result with enough provenance — seed, profile, wall-clock, worker id,
attempts — to audit or re-render a run without recomputing it.
"""

from __future__ import annotations

import pathlib
import time
from typing import List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError
from repro.experiments.profiles import ProfileLike, resolve_profile
from repro.experiments.registry import available_experiments
from repro.runner.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ManifestEntry,
    RunManifest,
)
from repro.runner.pool import (
    CRASH_RETRIES,
    RunInterrupted,
    crash_backoff_seconds,
    execute_serial,
    execute_task_payload,
    execute_tasks,
)
from repro.runner.progress import NullProgress, ProgressListener, ProgressPrinter
from repro.runner.sharding import (
    EXPERIMENT_WEIGHTS,
    TaskSpec,
    dispatch_order,
    plan_tasks,
)

__all__ = [
    "CRASH_RETRIES",
    "EXPERIMENT_WEIGHTS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "STATUS_FAILED",
    "STATUS_INTERRUPTED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "ManifestEntry",
    "NullProgress",
    "ProgressListener",
    "ProgressPrinter",
    "RunInterrupted",
    "RunManifest",
    "TaskSpec",
    "crash_backoff_seconds",
    "dispatch_order",
    "execute_serial",
    "execute_task_payload",
    "execute_tasks",
    "plan_tasks",
    "run_experiments",
    "run_tasks",
]


class _CheckpointProgress(ProgressListener):
    """Progress tee that flushes a partial manifest after every task.

    Each flush is atomic (:meth:`RunManifest.save`), so killing the run at
    any instant leaves the last complete checkpoint on disk — the file a
    later ``--resume`` run loads.  Unfinished tasks are simply absent from
    a checkpoint; resume treats absent and non-``ok`` alike.
    """

    def __init__(
        self,
        inner: ProgressListener,
        out_dir: pathlib.Path,
        prior_entries: Sequence[ManifestEntry],
        jobs: int,
        base_seed: int,
        profile_name: str,
    ) -> None:
        self.inner = inner
        self.out_dir = out_dir
        self.prior_entries = list(prior_entries)
        self.new_entries: List[ManifestEntry] = []
        self.jobs = jobs
        self.base_seed = base_seed
        self.profile_name = profile_name

    def run_started(self, total_tasks: int, jobs: int) -> None:
        self.inner.run_started(total_tasks, jobs)

    def task_started(self, task, worker_id) -> None:
        self.inner.task_started(task, worker_id)

    def task_retried(self, task, attempt, error) -> None:
        self.inner.task_retried(task, attempt, error)

    def task_finished(self, entry: ManifestEntry, done: int, total: int) -> None:
        self.new_entries.append(entry)
        RunManifest(
            entries=self.prior_entries + self.new_entries,
            jobs=self.jobs,
            base_seed=self.base_seed,
            profile_name=self.profile_name,
        ).save(self.out_dir)
        self.inner.task_finished(entry, done, total)

    def run_finished(self, done: int, total: int, wall_seconds: float) -> None:
        self.inner.run_finished(done, total, wall_seconds)


def run_tasks(
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    progress: Optional[ProgressListener] = None,
    resume_from: Optional[Union[RunManifest, str, pathlib.Path]] = None,
) -> RunManifest:
    """Execute an explicit task plan and assemble (and persist) a manifest.

    ``resume_from`` (a prior manifest, or a path to one) skips every task
    whose ``(task_id, experiment_id, seed, profile)`` already has an
    ``ok`` entry there, reusing that entry verbatim; because task seeds
    are pinned at plan time, the merged manifest is canonically identical
    (:meth:`RunManifest.canonical_json`) to an uninterrupted run.

    With ``out_dir`` set, a partial manifest is checkpointed atomically
    after every finished task, and a SIGINT flushes a final manifest with
    the unfinished tasks marked ``interrupted`` before
    :class:`~repro.runner.pool.RunInterrupted` (carrying that manifest)
    propagates to the caller.
    """
    started = time.perf_counter()
    prior: dict = {}
    if resume_from is not None:
        if not isinstance(resume_from, RunManifest):
            resume_from = RunManifest.load(resume_from)
        prior = {entry.task_id: entry for entry in resume_from.entries}

    reused: List[ManifestEntry] = []
    remaining: List[TaskSpec] = []
    for task in tasks:
        entry = prior.get(task.task_id)
        if (
            entry is not None
            and entry.ok
            and entry.experiment_id == task.experiment_id
            and entry.seed == task.seed
            and entry.profile == task.profile
        ):
            reused.append(entry)
        else:
            remaining.append(task)

    profile_names = {task.profile.name for task in tasks}
    profile_name = profile_names.pop() if len(profile_names) == 1 else "mixed"
    base_seed = tasks[0].seed if tasks else 0

    effective_progress: ProgressListener = progress or NullProgress()
    if out_dir is not None:
        effective_progress = _CheckpointProgress(
            effective_progress,
            pathlib.Path(out_dir),
            reused,
            max(1, jobs),
            base_seed,
            profile_name,
        )

    def assemble(new_entries: Sequence[ManifestEntry]) -> RunManifest:
        by_id = {entry.task_id: entry for entry in reused}
        by_id.update({entry.task_id: entry for entry in new_entries})
        return RunManifest(
            entries=[by_id[task.task_id] for task in tasks if task.task_id in by_id],
            jobs=max(1, jobs),
            base_seed=base_seed,
            profile_name=profile_name,
            total_wall_seconds=time.perf_counter() - started,
        )

    try:
        entries = execute_tasks(remaining, jobs=jobs, progress=effective_progress)
    except RunInterrupted as exc:
        manifest = assemble(exc.entries)
        if out_dir is not None:
            manifest.save(out_dir)
        exc.manifest = manifest
        raise
    manifest = assemble(entries)
    if out_dir is not None:
        manifest.save(out_dir)
    return manifest


def run_experiments(
    experiment_ids: Optional[Sequence[str]] = None,
    profile: ProfileLike = None,
    seed: int = 0,
    jobs: int = 1,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    timeout: Optional[float] = None,
    seeds_per_experiment: int = 1,
    progress: Optional[ProgressListener] = None,
    resume_from: Optional[Union[RunManifest, str, pathlib.Path]] = None,
) -> RunManifest:
    """Plan and run experiments (all of them by default) across workers.

    This is what ``wb-experiments --jobs N --out DIR`` calls.  Unknown ids
    are rejected up front, before any worker starts.  ``resume_from``
    skips tasks already completed in a prior (partial) manifest; see
    :func:`run_tasks`.
    """
    if experiment_ids is None:
        experiment_ids = available_experiments()
    known = set(available_experiments())
    unknown = [eid for eid in experiment_ids if eid not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {', '.join(unknown)}; available: "
            f"{', '.join(available_experiments())}"
        )
    resolved = resolve_profile(profile)
    tasks: List[TaskSpec] = plan_tasks(
        experiment_ids,
        profile=resolved,
        base_seed=seed,
        seeds_per_experiment=seeds_per_experiment,
        timeout=timeout,
    )
    return run_tasks(
        tasks,
        jobs=jobs,
        out_dir=out_dir,
        progress=progress,
        resume_from=resume_from,
    )
