"""Process-pool execution engine for experiment task shards.

Each task runs in its own worker process (at most ``jobs`` alive at once),
which buys three properties a shared long-lived pool cannot give cheaply:

* **timeouts** — a stuck task is killed without poisoning other workers;
* **crash isolation** — a worker dying (OOM, segfault in a native wheel,
  ``os._exit``) is detected per task and retried on a fresh process with
  exponential backoff (deterministic jitter, recorded per entry);
* **determinism** — every task computes from its pinned ``(experiment_id,
  profile, seed)`` alone, so results are bit-identical to a serial run
  regardless of scheduling.

Results cross the process boundary as ``ExperimentResult.to_dict()``
payloads.  The in-process serial path round-trips through the same
serialization so that ``--jobs 1`` and ``--jobs N`` produce byte-identical
manifests.  When worker processes cannot be created at all (exotic
platforms, sandboxes without ``fork``/pipes) the engine degrades to that
serial path instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, ReproError
from repro.common.rng import derive_seed
from repro.experiments.base import ExperimentResult
from repro.runner.manifest import (
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ManifestEntry,
)
from repro.runner.progress import NullProgress, ProgressListener
from repro.runner.sharding import TaskSpec, dispatch_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing

#: How often the scheduler polls running workers, in seconds.
POLL_INTERVAL = 0.02

#: Extra attempts granted when a worker process dies without reporting.
CRASH_RETRIES = 2

#: Exponential-backoff schedule for crash retries: attempt ``n`` waits
#: ``BASE * FACTOR**(n-1)`` seconds, plus deterministic jitter of up to
#: ``JITTER_FRACTION`` of that, derived from the task id so identical
#: reruns wait identically (and concurrent crashed tasks don't stampede
#: back in lock-step).
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER_FRACTION = 0.25


def crash_backoff_seconds(
    task_id: str, attempt: int, cap: Optional[float] = None
) -> float:
    """Deterministic backoff before retry number ``attempt`` (2-based).

    ``cap`` bounds the pre-jitter base — the fleet supervisor re-uses
    this curve for lease re-dispatch, where an unbounded exponential
    would leave a job parked behind one flaky worker for minutes.
    """
    base = BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** max(0, attempt - 2)
    if cap is not None:
        base = min(base, cap)
    jitter_rng = random.Random(derive_seed(0, f"backoff/{task_id}/{attempt}"))
    return base * (1.0 + BACKOFF_JITTER_FRACTION * jitter_rng.random())


class RunInterrupted(ReproError):
    """The user stopped a run (SIGINT) before every task finished.

    Carries the manifest entries accumulated so far — finished tasks with
    their real outcomes, everything else with
    :data:`~repro.runner.manifest.STATUS_INTERRUPTED` — so the caller can
    flush a resumable partial manifest before exiting nonzero.
    ``manifest`` is attached by :func:`repro.runner.run_tasks`.
    """

    def __init__(self, message: str, entries: List[ManifestEntry]) -> None:
        super().__init__(message)
        self.entries = entries
        self.manifest = None


def resolve_entry_point(task: TaskSpec) -> Callable[..., ExperimentResult]:
    """The callable a task executes: registry lookup, scenario or override."""
    if task.scenario is not None:
        from repro.scenario.runner import run_scenario_json

        def scenario_runner(profile, seed):
            return run_scenario_json(task.scenario, profile=profile, seed=seed)

        return scenario_runner
    if task.entry_point is None:
        from repro.experiments.registry import run_experiment

        def registry_runner(profile, seed):
            return run_experiment(task.experiment_id, profile=profile, seed=seed)

        return registry_runner
    module_name, separator, attribute = task.entry_point.partition(":")
    if not separator or not module_name or not attribute:
        raise ConfigurationError(
            f"entry_point must look like 'package.module:function', "
            f"got {task.entry_point!r}"
        )
    module = importlib.import_module(module_name)
    try:
        runner = getattr(module, attribute)
    except AttributeError:
        raise ConfigurationError(
            f"module {module_name!r} has no attribute {attribute!r}"
        )
    # Entry points are called as ``runner(profile=, seed=)``; one that
    # additionally declares an ``experiment_id`` parameter gets the
    # task's id bound here, so a single callable can serve many ids
    # (the chaos wrappers in repro.faults.chaos rely on this).
    try:
        parameters = inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return runner
    if "experiment_id" in parameters:
        return functools.partial(runner, experiment_id=task.experiment_id)
    return runner


def execute_task_payload(task: TaskSpec) -> Dict[str, object]:
    """Run one task to a serialisable payload (used in worker and parent).

    Routing both execution modes through ``to_dict`` is what makes serial
    and parallel manifests byte-identical: tuples normalise to lists in
    both, not just in the one that crossed a pipe.
    """
    runner = resolve_entry_point(task)
    started = time.perf_counter()
    result = runner(profile=task.profile, seed=task.seed)
    wall = time.perf_counter() - started
    if not isinstance(result, ExperimentResult):
        raise ConfigurationError(
            f"task {task.task_id!r} returned {type(result).__name__}, "
            f"expected ExperimentResult"
        )
    return {"result": result.to_dict(), "wall_seconds": wall}


def _worker_main(task: TaskSpec, channel) -> None:
    """Child-process entry: report a payload or a formatted error."""
    try:
        channel.put(("ok", execute_task_payload(task)))
    except BaseException:  # noqa: BLE001 - the parent needs *any* failure
        channel.put(("error", traceback.format_exc()))


def _entry_from_payload(
    task: TaskSpec,
    payload: Dict[str, object],
    worker_id: Optional[int],
    attempts: int,
    backoff_history: Optional[List[float]] = None,
) -> ManifestEntry:
    return ManifestEntry(
        task_id=task.task_id,
        experiment_id=task.experiment_id,
        seed=task.seed,
        profile=task.profile,
        status=STATUS_OK,
        wall_seconds=payload["wall_seconds"],
        worker_id=worker_id,
        attempts=attempts,
        backoff_history=list(backoff_history or []),
        shard_index=task.shard_index,
        num_shards=task.num_shards,
        result=ExperimentResult.from_dict(payload["result"]),
    )


def _failure_entry(
    task: TaskSpec,
    status: str,
    error: str,
    wall: float,
    worker_id: Optional[int],
    attempts: int,
    backoff_history: Optional[List[float]] = None,
) -> ManifestEntry:
    return ManifestEntry(
        task_id=task.task_id,
        experiment_id=task.experiment_id,
        seed=task.seed,
        profile=task.profile,
        status=status,
        wall_seconds=wall,
        worker_id=worker_id,
        attempts=attempts,
        backoff_history=list(backoff_history or []),
        shard_index=task.shard_index,
        num_shards=task.num_shards,
        error=error,
    )


def _interrupted_entry(task: TaskSpec, attempts: int = 1) -> ManifestEntry:
    return _failure_entry(
        task,
        STATUS_INTERRUPTED,
        "run interrupted before this task finished",
        0.0,
        None,
        attempts=attempts,
    )


def execute_serial(
    tasks: Sequence[TaskSpec], progress: Optional[ProgressListener] = None
) -> List[ManifestEntry]:
    """In-process execution, in plan order (the ``--jobs 1`` path)."""
    progress = progress or NullProgress()
    entries: List[ManifestEntry] = []
    for index, task in enumerate(tasks):
        progress.task_started(task, None)
        started = time.perf_counter()
        try:
            payload = execute_task_payload(task)
            entry = _entry_from_payload(task, payload, None, attempts=1)
        except KeyboardInterrupt:
            # Mark this task and everything still queued as interrupted
            # and hand the partial record up for a manifest flush.
            entries.extend(
                _interrupted_entry(pending) for pending in tasks[index:]
            )
            raise RunInterrupted("interrupted during serial execution", entries)
        except Exception:  # noqa: BLE001 - record, keep running the rest
            entry = _failure_entry(
                task,
                STATUS_FAILED,
                traceback.format_exc(),
                time.perf_counter() - started,
                None,
                attempts=1,
            )
        entries.append(entry)
        progress.task_finished(entry, len(entries), len(tasks))
    return entries


@dataclass
class _Running:
    """Bookkeeping for one live worker process."""

    task: TaskSpec
    process: multiprocessing.Process
    channel: object
    worker_id: int
    started: float
    attempt: int


def execute_tasks(
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    progress: Optional[ProgressListener] = None,
    mp_context: Optional[object] = None,
) -> List[ManifestEntry]:
    """Run every task; returns entries in the original plan order.

    ``jobs <= 1`` — or a platform where worker processes cannot be spawned
    — uses :func:`execute_serial`.  Results are identical either way; only
    wall-clock and the recorded ``worker_id`` differ.
    """
    progress = progress or NullProgress()
    total = len(tasks)
    started_run = time.perf_counter()
    progress.run_started(total, max(1, jobs))
    try:
        if jobs <= 1 or total == 0:
            entries = execute_serial(tasks, progress)
        else:
            try:
                # Imported here: the serial path never builds a process.
                import multiprocessing

                context = mp_context or multiprocessing.get_context()
                entries_by_id = _execute_pool(tasks, jobs, context, progress)
            except (OSError, ValueError, ImportError):
                # No usable multiprocessing (sandboxed /dev/shm, missing
                # primitives): degrade to in-process execution.
                entries = execute_serial(tasks, progress)
            else:
                entries = [entries_by_id[task.task_id] for task in tasks]
    except RunInterrupted as exc:
        # Normalise the partial record to plan order before handing it up.
        by_id = {entry.task_id: entry for entry in exc.entries}
        ordered = [
            by_id.get(task.task_id, _interrupted_entry(task)) for task in tasks
        ]
        done = sum(1 for entry in ordered if entry.ok)
        progress.run_finished(done, total, time.perf_counter() - started_run)
        raise RunInterrupted(str(exc), ordered) from None
    done = sum(1 for entry in entries if entry.ok)
    progress.run_finished(done, total, time.perf_counter() - started_run)
    return entries


def _import_experiment_modules(tasks: Sequence[TaskSpec]) -> None:
    """Import each registry experiment of the plan here, before any fork.

    Forked workers then inherit the modules instead of importing them once
    per task.  An id the registry does not know, or a module that fails to
    import, is skipped: the task's own worker raises the same error into
    its entry, where it belongs (an ``ImportError`` escaping from here
    would instead demote the whole run to serial execution).
    """
    from repro.experiments.registry import experiment_runner

    for experiment_id in {task.experiment_id for task in tasks}:
        try:
            experiment_runner(experiment_id)
        except Exception:  # noqa: BLE001 - reported by the task's worker
            pass


def _execute_pool(
    tasks: Sequence[TaskSpec],
    jobs: int,
    context,
    progress: ProgressListener,
) -> Dict[str, ManifestEntry]:
    """The scheduling loop: at most ``jobs`` single-task workers alive.

    ``pending`` holds ``(task, attempt, ready_at)`` triples; a crashed
    task re-enters the queue with ``ready_at`` in the future per
    :func:`crash_backoff_seconds`, so retries back off exponentially
    instead of immediately hammering whatever made the worker die.
    """
    _import_experiment_modules(tasks)
    pending = deque((task, 1, 0.0) for task in dispatch_order(tasks))
    free_workers = list(range(min(jobs, len(tasks))))
    running: List[_Running] = []
    finished: Dict[str, ManifestEntry] = {}
    backoffs: Dict[str, List[float]] = {}
    total = len(tasks)

    def launch(task: TaskSpec, attempt: int) -> None:
        worker_id = free_workers.pop(0)
        channel = context.SimpleQueue()
        process = context.Process(
            target=_worker_main, args=(task, channel), daemon=True
        )
        process.start()
        running.append(
            _Running(task, process, channel, worker_id, time.perf_counter(), attempt)
        )
        progress.task_started(task, worker_id)

    def record(entry: ManifestEntry) -> None:
        finished[entry.task_id] = entry
        progress.task_finished(entry, len(finished), total)

    def release(slot: _Running) -> None:
        running.remove(slot)
        free_workers.append(slot.worker_id)
        free_workers.sort()

    def history(task_id: str) -> List[float]:
        return backoffs.get(task_id, [])

    try:
        while pending or running:
            now = time.perf_counter()
            deferred: List[object] = []
            while pending and free_workers:
                task, attempt, ready_at = pending.popleft()
                if ready_at > now:
                    deferred.append((task, attempt, ready_at))
                    continue
                launch(task, attempt)
            for item in reversed(deferred):
                pending.appendleft(item)
            time.sleep(POLL_INTERVAL)
            for slot in list(running):
                task = slot.task
                elapsed = time.perf_counter() - slot.started
                if not slot.channel.empty():
                    verdict, payload = slot.channel.get()
                    slot.process.join()
                    release(slot)
                    if verdict == "ok":
                        record(
                            _entry_from_payload(
                                task, payload, slot.worker_id, slot.attempt,
                                history(task.task_id),
                            )
                        )
                    else:
                        # A Python-level exception is deterministic: no retry.
                        record(
                            _failure_entry(
                                task, STATUS_FAILED, payload, elapsed,
                                slot.worker_id, slot.attempt,
                                history(task.task_id),
                            )
                        )
                elif task.timeout is not None and elapsed > task.timeout:
                    slot.process.terminate()
                    slot.process.join()
                    release(slot)
                    record(
                        _failure_entry(
                            task,
                            STATUS_TIMEOUT,
                            f"timed out after {task.timeout:.1f}s",
                            elapsed,
                            slot.worker_id,
                            slot.attempt,
                            history(task.task_id),
                        )
                    )
                elif not slot.process.is_alive():
                    # Died without reporting: a genuine crash.  Retry on a
                    # fresh process after a deterministic backoff, up to
                    # CRASH_RETRIES times, then record the failure.
                    error = (
                        f"worker crashed (exit code {slot.process.exitcode})"
                    )
                    release(slot)
                    if slot.attempt <= CRASH_RETRIES:
                        next_attempt = slot.attempt + 1
                        delay = crash_backoff_seconds(task.task_id, next_attempt)
                        backoffs.setdefault(task.task_id, []).append(delay)
                        progress.task_retried(task, next_attempt, error)
                        pending.appendleft(
                            (task, next_attempt, time.perf_counter() + delay)
                        )
                    else:
                        record(
                            _failure_entry(
                                task, STATUS_FAILED, error, elapsed,
                                slot.worker_id, slot.attempt,
                                history(task.task_id),
                            )
                        )
    except KeyboardInterrupt:
        # Stop the fleet, record everything unfinished as interrupted,
        # and hand the partial record up for a manifest flush.
        for slot in running:
            slot.process.terminate()
            slot.process.join()
        entries = list(finished.values())
        entries.extend(
            _interrupted_entry(slot.task, slot.attempt) for slot in running
        )
        entries.extend(
            _interrupted_entry(task, attempt)
            for task, attempt, _ready_at in pending
        )
        running.clear()
        raise RunInterrupted("interrupted during parallel execution", entries)
    finally:
        for slot in running:
            slot.process.terminate()
            slot.process.join()
    return finished
