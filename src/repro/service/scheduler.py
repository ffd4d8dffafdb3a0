"""Job scheduler: priority queue + dedup + backpressure over the runner.

The scheduler is a thread-based front end over the existing
:mod:`repro.runner` execution engine.  One :class:`JobSpec` names an
experiment configuration; its canonical cache key
(:func:`repro.service.keys.cache_key`) drives three behaviours:

* **memoisation** — a submission whose key is already in the
  :class:`~repro.service.store.ResultStore` completes immediately from
  the store (no queue, no worker);
* **in-flight deduplication** — N identical submissions while one
  computation is queued or running coalesce onto that computation and
  all fan out its one result;
* **content addressing** — the finished result is written back under the
  key, so the *next* identical submission is a store hit.

Distinct keys queue behind a priority heap (higher ``priority`` first,
FIFO within a priority) of bounded depth: submissions beyond
``queue_depth`` raise :class:`QueueFullError` — the explicit 429-style
backpressure signal the HTTP layer translates.  Queued jobs can be
cancelled; cancellation never leaves a partial blob in the store because
results are stored only after a computation finishes.

One :class:`threading.Condition` (:attr:`JobScheduler.lock`) guards all
scheduler state, and the HTTP layer takes it for its store and telemetry
calls too.  ``workers`` threads pop the heap and each drives the
runner's engine for exactly one task *outside* the lock, then stores
the result and finishes the computation under it.  With
``isolate=True`` the task runs in a worker *process* through the same
pool machinery the CLI uses — inheriting its per-task timeout, crash
retry with deterministic backoff, and serial fallback; ``isolate=False``
runs in-process (cheap, but timeouts are then advisory only).

With live *fleet* workers (external processes claiming jobs over HTTP
through the lease protocol in :mod:`repro.service.fleet`), the
in-process worker threads stand down and workers pull queued
computations via :meth:`JobScheduler.fleet_claim`, heartbeat their
leases, and upload result blobs; a supervisor thread expires dead
leases, re-dispatches with capped deterministic backoff, and quarantines
poison jobs into the ``dead_letter`` state.  With zero live workers the
scheduler degrades gracefully back to the in-process threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.common.errors import ConfigurationError, ManifestError, ReproError
from repro.experiments.profiles import ProfileLike, RunProfile, resolve_profile
from repro.runner.manifest import ManifestEntry
from repro.runner.pool import execute_tasks
from repro.runner.sharding import TaskSpec
from repro.service.fleet import (
    DEAD_LETTER,
    FleetConfig,
    FleetState,
    FleetUnavailableError,
    LeaseError,
    lease_backoff_seconds,
)
from repro.service.keys import cache_key
from repro.service.metrics import ServiceTelemetry
from repro.service.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.spec import ScenarioSpec


class QueueFullError(ReproError):
    """The scheduler's bounded queue rejected a submission (HTTP 429)."""

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"job queue is full ({queue_depth} computation(s) queued); "
            f"retry after the backlog drains"
        )
        self.queue_depth = queue_depth


class UnknownJobError(ConfigurationError):
    """A job id that this scheduler never issued."""


class JobState:
    """Terminal and transient job states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Quarantined after ``dead_letter_after`` failed fleet leases.
    DEAD_LETTER = DEAD_LETTER

    TERMINAL = frozenset({DONE, FAILED, CANCELLED, DEAD_LETTER})


#: How a DONE job's result was obtained.
SOURCE_COMPUTED = "computed"
SOURCE_STORE = "store"
SOURCE_COALESCED = "coalesced"


@dataclass(frozen=True)
class JobSpec:
    """One submittable experiment configuration.

    ``entry_point`` mirrors :class:`repro.runner.TaskSpec`'s dotted
    override and participates in the cache key (two different entry
    points must never collide on one content address).

    ``scenario`` makes the job a declarative scenario run
    (:mod:`repro.scenario`): ``experiment_id`` then holds the
    ``scenario:<name>`` label and the canonical spec dict joins the cache
    key, so two submissions dedup exactly when their specs canonicalise
    identically.
    """

    experiment_id: str
    profile: RunProfile = field(default_factory=lambda: resolve_profile(None))
    seed: int = 0
    #: Wall-clock budget, enforced by the worker pool when the scheduler
    #: isolates jobs in processes.  Volatile: not part of the cache key.
    timeout: Optional[float] = None
    entry_point: Optional[str] = None
    scenario: Optional["ScenarioSpec"] = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.entry_point is not None:
            raise ConfigurationError(
                "a job carries either a scenario or an entry_point "
                "override, not both"
            )

    @staticmethod
    def create(
        experiment_id: Optional[str] = None,
        profile: ProfileLike = None,
        seed: int = 0,
        timeout: Optional[float] = None,
        entry_point: Optional[str] = None,
        scenario: Optional["ScenarioSpec"] = None,
    ) -> "JobSpec":
        """Normalising constructor (accepts profile names).

        Scenario jobs may omit ``experiment_id``; it defaults to the
        spec's ``scenario:<name>`` label.
        """
        if scenario is not None and experiment_id is None:
            from repro.scenario.runner import scenario_experiment_id

            experiment_id = scenario_experiment_id(scenario)
        if experiment_id is None:
            raise ConfigurationError(
                "a job needs an experiment_id or a scenario spec"
            )
        return JobSpec(
            experiment_id=experiment_id,
            profile=resolve_profile(profile),
            seed=seed,
            timeout=timeout,
            entry_point=entry_point,
            scenario=scenario,
        )

    @property
    def key(self) -> str:
        """The content address of this configuration."""
        return cache_key(
            self.experiment_id,
            profile=self.profile,
            seed=self.seed,
            entry_point=self.entry_point,
            scenario=(
                None if self.scenario is None else self.scenario.to_dict()
            ),
        )


@dataclass
class Job:
    """One submission's lifecycle record (returned to API callers)."""

    job_id: str
    spec: JobSpec
    key: str
    priority: int
    state: str = JobState.QUEUED
    #: Where a DONE result came from: computed / store / coalesced.
    source: Optional[str] = None
    error: Optional[str] = None
    #: Runner provenance for computed jobs (attempts, wall seconds).
    attempts: int = 0
    wall_seconds: float = 0.0
    #: Fleet provenance: lease attempts this job's computation went
    #: through, each ``{attempt, worker_id, lease_id, outcome}``.
    lease_history: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON view served by ``GET /jobs/{id}``."""
        data: Dict[str, object] = {
            "job_id": self.job_id,
            "experiment_id": self.spec.experiment_id,
            "profile": self.spec.profile.to_dict(),
            "seed": self.spec.seed,
            "priority": self.priority,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 6),
        }
        if self.spec.scenario is not None:
            data["scenario"] = {
                "name": self.spec.scenario.name,
                "kind": self.spec.scenario.kind,
            }
        if self.lease_history:
            data["lease_history"] = list(self.lease_history)
        data["result_key"] = self.key if self.state == JobState.DONE else None
        return data


@dataclass
class _Computation:
    """One deduplicated unit of work; many jobs can ride it."""

    key: str
    spec: JobSpec
    priority: int
    jobs: List[Job] = field(default_factory=list)
    state: str = JobState.QUEUED
    cancelled: bool = False
    #: Fleet lease bookkeeping: id of the live lease (None when not
    #: leased), how many leases have been granted, and the full attempt
    #: history (shared into each rider's ``Job.lease_history``).
    lease_id: Optional[str] = None
    lease_attempts: int = 0
    lease_history: List[Dict[str, object]] = field(default_factory=list)


def compute_entry(spec: JobSpec, isolate: bool) -> ManifestEntry:
    """Run one job through the runner engine; returns its manifest entry.

    ``isolate=True`` routes through the process pool (1 worker), which
    is what grants the runner's timeout enforcement and crash retry;
    ``isolate=False`` takes the in-process serial path.
    """
    task = TaskSpec(
        task_id=spec.experiment_id,
        experiment_id=spec.experiment_id,
        seed=spec.seed,
        profile=spec.profile,
        timeout=spec.timeout,
        entry_point=spec.entry_point,
        scenario=(
            None if spec.scenario is None else spec.scenario.to_json()
        ),
    )
    entries = execute_tasks([task], jobs=2 if isolate else 1)
    return entries[0]


class JobScheduler:
    """The threaded scheduler; use as a context manager.

    :attr:`lock` guards every piece of state below, so each public
    method is safe to call from any thread.  Computations run outside
    it, on the ``workers`` threads :meth:`start` spawns.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        queue_depth: int = 32,
        isolate: bool = False,
        telemetry: Optional[ServiceTelemetry] = None,
        fleet: Optional[FleetConfig] = None,
        stream: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.store = store
        self.workers = workers
        self.queue_depth = queue_depth
        self.isolate = isolate
        self.telemetry = telemetry or ServiceTelemetry()
        #: Optional :class:`repro.service.stream.ServiceStream`: every
        #: job-state transition publishes one ``job`` frame, and job
        #: execution binds the hub so run telemetry mirrors out live.
        self.stream = stream
        self.fleet = FleetState(config=fleet or FleetConfig())
        #: The one lock over scheduler, store and telemetry state; a
        #: condition so waiters block on it until a job finishes.
        self.lock = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, _Computation] = {}
        self._heap: List[tuple] = []
        self._queued = 0
        #: Expired-lease computations waiting out their re-dispatch
        #: backoff: ``(ready_at, computation)``, promoted by the
        #: supervisor.  They still count against ``queue_depth``.
        self._delayed: List[tuple] = []
        self._sequence = itertools.count()
        self._job_sequence = itertools.count(1)
        #: Set to tell this run's threads to exit; ``None`` when stopped.
        self._stop_event: Optional[threading.Event] = None
        self._threads: List[threading.Thread] = []
        #: Worker threads currently running a computation (outside the
        #: lock); :meth:`stop` does not wait for them.
        self._computing: Set[threading.Thread] = set()
        #: EWMA of recent computation wall time, seeding the queue-depth
        #: derived ``Retry-After`` hint (seconds).
        self._recent_wall_seconds = 0.5
        # Counters surfaced by /metrics (telemetry holds the windowed view).
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
            "deduplicated": 0,
            "store_served": 0,
            "computations": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobScheduler":
        """Spawn the worker and supervisor threads (idempotent)."""
        with self.lock:
            if self._stop_event is not None:
                return self
            stop_event = threading.Event()
            self._stop_event = stop_event
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(stop_event,),
                    name=f"repro-scheduler-worker-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
            self._threads.append(
                threading.Thread(
                    target=self._supervisor_loop,
                    args=(stop_event,),
                    name="repro-scheduler-supervisor",
                    daemon=True,
                )
            )
            for thread in self._threads:
                thread.start()
        return self

    def stop(self, drain: bool = False) -> None:
        """Stop the threads; ``drain=True`` finishes the backlog first.

        A computation still running is not waited for: its jobs are
        cancelled here, and its thread drops the result when it returns.
        """
        if self._stop_event is None:
            return
        if drain:
            self.join()
        with self.lock:
            if self._stop_event is None:
                return
            self._stop_event.set()
            self._stop_event = None
            self.lock.notify_all()
            idle = [
                thread for thread in self._threads
                if thread not in self._computing
            ]
            self._threads = []
            # Fail anything still queued, leased out, or parked in
            # re-dispatch backoff, so waiters do not hang forever.
            for lease in list(self.fleet.leases.values()):
                self.fleet.release(lease.lease_id)
            self._delayed = []
            for computation in list(self._inflight.values()):
                if computation.state in (JobState.QUEUED, JobState.RUNNING):
                    self._finish_computation(
                        computation,
                        state=JobState.CANCELLED,
                        error="scheduler stopped before this job finished",
                    )
            # Nothing cancelled above may run after a restart.
            self._heap = []
            self._queued = 0
        for thread in idle:
            thread.join()

    def join(self) -> None:
        """Wait until no computation is queued or running."""
        with self.lock:
            self.lock.wait_for(lambda: not self._inflight)

    def __enter__(self) -> "JobScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, priority: int = 0) -> Job:
        """Submit one job; returns its (possibly already DONE) record.

        Raises :class:`QueueFullError` when the submission would need a
        new computation and the queue is at depth — memoised and
        coalesced submissions are never rejected (they cost no queue
        slot).  Raises :class:`FleetUnavailableError` (HTTP 503) when
        the service is draining or an unhealthy fleet is shedding load;
        memoised and coalesced submissions are still served.
        """
        with self.lock:
            if self._stop_event is None:
                raise ConfigurationError(
                    "scheduler is not running; use 'with JobScheduler(...)'"
                )
            self._validate(spec)
            key = spec.key
            tick = self.telemetry.submission()
            self.counters["submitted"] += 1
            job = Job(
                job_id=f"job-{next(self._job_sequence):06d}",
                spec=spec,
                key=key,
                priority=priority,
            )
            self._jobs[job.job_id] = job

            # 1. Memoised: serve straight from the content-addressed store.
            cached = self._store_probe(key)
            if cached:
                job.state = JobState.DONE
                job.source = SOURCE_STORE
                self.counters["store_served"] += 1
                self.counters["completed"] += 1
                self.telemetry.store_hit(key, tick)
                self._publish_job(job)
                return job

            # 2. Coalesce onto an identical computation already in flight.
            computation = self._inflight.get(key)
            if computation is not None and not computation.cancelled:
                job.source = SOURCE_COALESCED
                computation.jobs.append(job)
                self.counters["deduplicated"] += 1
                self.telemetry.coalesced(key, tick)
                self._publish_job(job)
                return job

            # 3. New computation: first the fleet's degradation ladder (a
            # draining or unhealthy fleet sheds load with 503), then the
            # bounded queue with explicit 429 backpressure.
            shed_reason = self._shed_reason()
            if shed_reason is not None:
                self.fleet.counters["shed"] += 1
                del self._jobs[job.job_id]
                raise FleetUnavailableError(
                    shed_reason, retry_after=self.retry_after_seconds()
                )
            if self._queued >= self.queue_depth:
                self.counters["rejected"] += 1
                del self._jobs[job.job_id]
                raise QueueFullError(self.queue_depth)
            computation = _Computation(key=key, spec=spec, priority=priority)
            computation.jobs.append(job)
            self._inflight[key] = computation
            heapq.heappush(
                self._heap, (-priority, next(self._sequence), computation)
            )
            self._queued += 1
            self.counters["computations"] += 1
            self.telemetry.computation_enqueued(key, tick)
            self._publish_job(job)
            self.lock.notify_all()
            return job

    def _validate(self, spec: JobSpec) -> None:
        if spec.scenario is not None:
            spec.scenario.validate()  # loud schema/codec/policy failures
            return  # scenario jobs are not registry entries
        if spec.entry_point is not None:
            return  # dotted override: resolved (and rejected) at run time
        from repro.experiments.registry import available_experiments

        if spec.experiment_id not in available_experiments():
            raise ConfigurationError(
                f"unknown experiment {spec.experiment_id!r}; available: "
                f"{', '.join(available_experiments())}"
            )

    def _store_probe(self, key: str) -> bool:
        """True when the store holds a healthy blob for ``key``.

        A corrupt blob (:class:`~repro.common.errors.ManifestError`) is
        discarded and treated as a miss, so the service self-heals by
        recomputing instead of serving garbage or going down.
        """
        try:
            return self.store.get_bytes(key) is not None
        except ManifestError:
            self.store.discard(key)
            return False

    # ------------------------------------------------------------------
    # Waiting / inspection / cancellation
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        """Current record of ``job_id`` (raises on unknown ids)."""
        with self.lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"no job {job_id!r} in this scheduler")

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until ``job_id`` reaches a terminal state.

        Raises the builtin :class:`TimeoutError` when ``timeout``
        seconds pass first.
        """
        with self.lock:
            job = self.job(job_id)
            if not self.lock.wait_for(
                lambda: job.state in JobState.TERMINAL, timeout
            ):
                raise TimeoutError(
                    f"job {job_id!r} still {job.state} after {timeout}s"
                )
            return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns ``True`` when it took effect.

        Running computations are not interrupted (the runner may be
        mid-experiment in a worker process); their jobs report
        ``False``.  Cancelling one coalesced job detaches only that job
        — the computation keeps running for its other riders.  The store
        stays consistent: nothing is written for a computation whose
        every job was cancelled before it ran.
        """
        with self.lock:
            job = self.job(job_id)
            if job.state != JobState.QUEUED:
                return False
            computation = self._inflight.get(job.key)
            if computation is None or computation.state != JobState.QUEUED:
                return False
            if job in computation.jobs:
                computation.jobs.remove(job)
            job.state = JobState.CANCELLED
            self.counters["cancelled"] += 1
            self.telemetry.cancelled(job.key, self.telemetry.bus.time)
            self._publish_job(job)
            if not computation.jobs:
                # Last rider gone: the computation itself is abandoned
                # (the heap entry is skipped lazily when a worker pops it).
                computation.cancelled = True
                del self._inflight[computation.key]
                self._queued -= 1
            self.lock.notify_all()
            return True

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _fleet_engaged(self) -> bool:
        """True while external fleet workers own the queue.

        The in-process pool path stands down whenever live fleet
        workers exist (they claim over HTTP), when the operator pinned
        ``min_workers > 0`` (running in-process would dodge the
        shedding contract), or while draining.  With zero live workers
        and no such pin, the scheduler degrades gracefully back to the
        in-process pool — exactly the pre-fleet behaviour.
        """
        if self.fleet.draining:
            return True
        if self.fleet.config.min_workers > 0:
            return True
        return bool(self.fleet.live_workers())

    def _worker_loop(self, stop_event: threading.Event) -> None:
        thread = threading.current_thread()
        while True:
            with self.lock:
                # Poll (rather than wait forever) so the loop notices
                # fleet workers appearing/expiring and delayed
                # computations being promoted without an explicit
                # notification for every such event.
                while not stop_event.is_set() and (
                    not self._heap or self._fleet_engaged()
                ):
                    self.lock.wait(0.1)
                if stop_event.is_set():
                    return
                _neg_priority, _seq, computation = heapq.heappop(self._heap)
                if computation.cancelled:
                    continue
                self._queued -= 1
                computation.state = JobState.RUNNING
                for job in computation.jobs:
                    job.state = JobState.RUNNING
                    self._publish_job(job)
                lead_job_id = (
                    computation.jobs[0].job_id if computation.jobs else ""
                )
                self._computing.add(thread)
            try:
                entry = self._compute_entry_bound(
                    computation.spec, lead_job_id
                )
            except Exception as exc:  # noqa: BLE001 - fan failure out
                entry = None
                error = f"scheduler execution error: {exc!r}"
            with self.lock:
                self._computing.discard(thread)
                if stop_event.is_set():
                    return  # stop() already cancelled its jobs: drop it
                if entry is None:
                    self._finish_computation(
                        computation, state=JobState.FAILED, error=error
                    )
                elif entry.ok:
                    evicted = self.store.put(computation.key, entry.result)
                    self.telemetry.result_stored(
                        computation.key, self.telemetry.bus.time
                    )
                    for victim in evicted:
                        self.telemetry.store_evicted(
                            victim.key, self.telemetry.bus.time
                        )
                    self._finish_computation(
                        computation, state=JobState.DONE, entry=entry
                    )
                else:
                    self._finish_computation(
                        computation,
                        state=JobState.FAILED,
                        error=f"{entry.status}: {entry.error}",
                        entry=entry,
                    )

    def _finish_computation(
        self,
        computation: _Computation,
        state: str,
        error: Optional[str] = None,
        entry: Optional[ManifestEntry] = None,
        attempts: Optional[int] = None,
        wall_seconds: Optional[float] = None,
    ) -> None:
        computation.state = state
        self._inflight.pop(computation.key, None)
        if state == JobState.FAILED:
            self.telemetry.computation_failed(
                computation.key, self.telemetry.bus.time
            )
        wall = entry.wall_seconds if entry is not None else wall_seconds
        if state == JobState.DONE and wall is not None and wall > 0:
            self._recent_wall_seconds = (
                0.8 * self._recent_wall_seconds + 0.2 * wall
            )
        for job in computation.jobs:
            job.state = state
            job.error = error
            if state == JobState.DONE and job.source is None:
                job.source = SOURCE_COMPUTED
            if entry is not None:
                job.attempts = entry.attempts
                job.wall_seconds = entry.wall_seconds
            if attempts is not None:
                job.attempts = attempts
            if wall_seconds is not None:
                job.wall_seconds = wall_seconds
            if computation.lease_history:
                job.lease_history = list(computation.lease_history)
            if state == JobState.DONE:
                self.counters["completed"] += 1
            elif state == JobState.FAILED:
                self.counters["failed"] += 1
            elif state == JobState.CANCELLED:
                self.counters["cancelled"] += 1
            elif state == JobState.DEAD_LETTER:
                self.counters["failed"] += 1
            self._publish_job(job)
        self.lock.notify_all()

    def _publish_job(self, job: Job) -> None:
        """One ``job`` frame per state transition (under :attr:`lock`).

        Publishing is lock-plus-append per attached stream client — a
        slow consumer overflows its own bounded queue, never stalls the
        scheduler.
        """
        if self.stream is not None:
            self.stream.publish_job(job)

    def _compute_entry_bound(
        self, spec: JobSpec, lead_job_id: str
    ) -> ManifestEntry:
        """Worker-thread entry: run the job with the hub bound.

        Binding the job-stamped hub view around :func:`compute_entry`
        lets in-process runs mirror their telemetry frames (closed-loop
        scores/alarms/flips, sweep progress marks) onto the service
        stream.  Isolate-mode jobs run in the process pool where the
        binding cannot follow; they still stream their ``job`` frames.
        """
        from repro.service.progress import job_publisher_scope

        hub = self.stream.publisher if self.stream is not None else None
        with job_publisher_scope(hub, lead_job_id):
            return compute_entry(spec, self.isolate)

    # ------------------------------------------------------------------
    # Fleet lease protocol
    # ------------------------------------------------------------------
    def _shed_reason(self) -> Optional[str]:
        """Why a new computation must be shed right now, or ``None``."""
        if self.fleet.draining:
            return "service is draining for shutdown"
        minimum = self.fleet.config.min_workers
        if minimum > 0:
            live = len(self.fleet.live_workers())
            if live < minimum:
                return (
                    f"fleet unhealthy: {live} live worker(s), "
                    f"{minimum} required"
                )
        return None

    def retry_after_seconds(self) -> int:
        """Backpressure hint (seconds) derived from queue depth and
        worker count: backlog × recent seconds-per-job ÷ capacity,
        clamped to [1, 60].  Served as ``Retry-After`` on 429/503."""
        with self.lock:
            running = sum(
                1
                for computation in self._inflight.values()
                if computation.state == JobState.RUNNING
            )
            backlog = self._queued + running + 1
            live = len(self.fleet.live_workers())
            capacity = live if live > 0 else self.workers
            hint = math.ceil(
                backlog * self._recent_wall_seconds / max(1, capacity)
            )
            return max(1, min(60, int(hint)))

    def fleet_claim(self, worker_id: str) -> Dict[str, object]:
        """A fleet worker asks for work; returns a grant or an idle poll.

        The grant carries the lease (id, key, TTL, attempt) and the full
        job payload the worker needs to rebuild a
        :class:`~repro.runner.sharding.TaskSpec`.  With nothing
        claimable the response's ``lease`` is ``None`` and
        ``retry_seconds`` suggests a poll interval; ``draining`` tells
        the worker to finish up and exit.
        """
        with self.lock:
            if not worker_id:
                raise ConfigurationError("fleet claim needs a worker_id")
            info = self.fleet.touch_worker(worker_id)
            idle: Dict[str, object] = {
                "lease": None,
                "draining": self.fleet.draining,
                "retry_seconds": min(
                    1.0, self.fleet.config.effective_supervisor_interval
                ),
            }
            if self.fleet.draining:
                return idle
            computation = self._pop_claimable()
            if computation is None:
                return idle
            self._queued -= 1
            computation.state = JobState.RUNNING
            for job in computation.jobs:
                job.state = JobState.RUNNING
                self._publish_job(job)
            computation.lease_attempts += 1
            lease = self.fleet.grant(
                computation.key, worker_id, computation.lease_attempts
            )
            computation.lease_id = lease.lease_id
            computation.lease_history.append(
                {
                    "attempt": lease.attempt,
                    "worker_id": worker_id,
                    "lease_id": lease.lease_id,
                    "outcome": "granted",
                }
            )
            info.claims += 1
            spec = computation.spec
            return {
                "lease": {
                    "lease_id": lease.lease_id,
                    "key": computation.key,
                    "ttl": self.fleet.config.lease_ttl,
                    "attempt": lease.attempt,
                },
                "draining": False,
                "job": {
                    "experiment_id": spec.experiment_id,
                    "profile": spec.profile.to_dict(),
                    "seed": spec.seed,
                    "timeout": spec.timeout,
                    "entry_point": spec.entry_point,
                    "scenario": (
                        None if spec.scenario is None else spec.scenario.to_json()
                    ),
                },
            }

    def _pop_claimable(self) -> Optional[_Computation]:
        """Highest-priority queued computation, skipping dead entries."""
        while self._heap:
            _neg_priority, _seq, computation = heapq.heappop(self._heap)
            if computation.cancelled:
                continue
            if computation.state != JobState.QUEUED:
                continue
            return computation
        return None

    def fleet_heartbeat(
        self, lease_id: str, worker_id: Optional[str] = None
    ) -> Dict[str, object]:
        """Renew a lease (raises :class:`LeaseError` on a dead one)."""
        with self.lock:
            lease = self.fleet.renew(lease_id, worker_id)
            return lease.to_dict()

    def fleet_complete(
        self,
        lease_id: str,
        worker_id: str,
        result: object,
        wall_seconds: float = 0.0,
    ) -> Dict[str, object]:
        """Upload the result blob for a leased computation.

        A malformed payload is rejected with 400 *without* releasing
        the lease — a torn upload looks exactly like a worker that died
        mid-upload, and the supervisor's expiry path re-dispatches it.
        A dead lease raises :class:`LeaseError` (409) and the upload is
        dropped: the re-dispatched attempt's bit-identical result is
        the one that gets stored.
        """
        with self.lock:
            try:
                lease = self.fleet.checked(lease_id, worker_id)
            except LeaseError:
                self.fleet.counters["uploads_rejected"] += 1
                raise
            computation = self._inflight.get(lease.key)
            if computation is None or computation.lease_id != lease_id:
                self.fleet.counters["uploads_rejected"] += 1
                self.fleet.release(lease_id)
                raise LeaseError(
                    f"lease {lease_id!r} no longer maps to a live computation"
                )
            from repro.experiments.base import ExperimentResult

            if not isinstance(result, dict):
                raise ConfigurationError(
                    "fleet upload payload must be a result object"
                )
            try:
                parsed = ExperimentResult.from_dict(result)
            except Exception as exc:  # noqa: BLE001 - torn/garbage upload
                # The lease stays live: a malformed blob is indistinguishable
                # from a worker dying mid-upload, and expiry re-dispatches it.
                raise ConfigurationError(
                    f"fleet upload payload is not a valid result: {exc!r}"
                ) from exc
            self.fleet.release(lease_id)
            computation.lease_id = None
            self._lease_outcome(computation, lease_id, "completed")
            info = self.fleet.touch_worker(worker_id)
            info.completed += 1
            self.fleet.counters["fleet_completed"] += 1
            evicted = self.store.put(computation.key, parsed)
            self.telemetry.result_stored(computation.key, self.telemetry.bus.time)
            for victim in evicted:
                self.telemetry.store_evicted(victim.key, self.telemetry.bus.time)
            self._finish_computation(
                computation,
                state=JobState.DONE,
                attempts=lease.attempt,
                wall_seconds=wall_seconds,
            )
            return {"stored": True, "key": computation.key}

    def fleet_fail(
        self, lease_id: str, worker_id: str, error: str
    ) -> Dict[str, object]:
        """Report a *deterministic* failure (the experiment itself
        raised).  Mirrors the pool's semantics: deterministic failures
        are not retried — retrying would fail identically."""
        with self.lock:
            lease = self.fleet.checked(lease_id, worker_id)
            computation = self._inflight.get(lease.key)
            self.fleet.release(lease_id)
            if computation is None or computation.lease_id != lease_id:
                raise LeaseError(
                    f"lease {lease_id!r} no longer maps to a live computation"
                )
            computation.lease_id = None
            self._lease_outcome(computation, lease_id, "failed")
            info = self.fleet.touch_worker(worker_id)
            info.failed += 1
            self.fleet.counters["fleet_failed"] += 1
            self._finish_computation(
                computation,
                state=JobState.FAILED,
                error=error or "fleet worker reported failure",
                attempts=lease.attempt,
            )
            return {"state": JobState.FAILED, "key": computation.key}

    @staticmethod
    def _lease_outcome(
        computation: _Computation, lease_id: str, outcome: str
    ) -> None:
        for record in reversed(computation.lease_history):
            if record["lease_id"] == lease_id:
                record["outcome"] = outcome
                return

    def begin_drain(self) -> None:
        """Enter drain mode: shed new submissions, grant no new leases,
        let in-flight leases finish (SIGTERM handling)."""
        with self.lock:
            self.fleet.draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain in-flight leases; ``True`` when everything finished.

        Enters drain mode, then waits for live leases and running
        computations to complete (the supervisor keeps expiring dead
        leases; with ``dead_letter_after`` exhausted they dead-letter
        and the drain still terminates).  Queued-but-never-leased work
        is cancelled by the subsequent :meth:`stop`.
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.lock:
            while True:
                busy = bool(self.fleet.leases) or any(
                    computation.state == JobState.RUNNING
                    for computation in self._inflight.values()
                )
                if not busy:
                    return True
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                self.lock.wait(0.02)

    # ------------------------------------------------------------------
    # Supervisor: lease expiry, re-dispatch backoff, dead-lettering
    # ------------------------------------------------------------------
    def _supervisor_loop(self, stop_event: threading.Event) -> None:
        interval = self.fleet.config.effective_supervisor_interval
        while not stop_event.wait(interval):
            with self.lock:
                if stop_event.is_set():
                    return
                self.supervise_once()

    def supervise_once(self) -> None:
        """One supervisor tick (synchronous; also driven by tests).

        Expires overdue leases — re-dispatching their computations with
        capped exponential backoff + deterministic jitter, or
        quarantining them into dead-letter after ``dead_letter_after``
        failed leases — and promotes delayed computations whose backoff
        has elapsed back onto the heap.
        """
        with self.lock:
            for lease in self.fleet.expired_leases():
                self.fleet.release(lease.lease_id)
                self.fleet.counters["leases_expired"] += 1
                computation = self._inflight.get(lease.key)
                if computation is None or computation.lease_id != lease.lease_id:
                    continue  # completed/failed just before the tick
                computation.lease_id = None
                self._lease_outcome(computation, lease.lease_id, "expired")
                if computation.lease_attempts >= self.fleet.config.dead_letter_after:
                    self.fleet.counters["dead_letter"] += 1
                    self.fleet.dead_letters.append(
                        {
                            "key": computation.key,
                            "experiment_id": computation.spec.experiment_id,
                            "lease_attempts": computation.lease_attempts,
                            "lease_history": list(computation.lease_history),
                        }
                    )
                    self._finish_computation(
                        computation,
                        state=JobState.DEAD_LETTER,
                        error=(
                            f"dead-lettered after {computation.lease_attempts} "
                            f"failed lease(s)"
                        ),
                        attempts=computation.lease_attempts,
                    )
                    continue
                delay = lease_backoff_seconds(
                    computation.key,
                    computation.lease_attempts,
                    self.fleet.config.backoff_cap,
                )
                computation.state = JobState.QUEUED
                for job in computation.jobs:
                    job.state = JobState.QUEUED
                    self._publish_job(job)
                self.fleet.counters["redispatches"] += 1
                self._queued += 1
                self._delayed.append((self.fleet.now() + delay, computation))
            if self._delayed:
                now = self.fleet.now()
                still_waiting = []
                for ready_at, computation in self._delayed:
                    if computation.cancelled:
                        continue  # cancel() already settled the accounting
                    if ready_at <= now:
                        heapq.heappush(
                            self._heap,
                            (
                                -computation.priority,
                                next(self._sequence),
                                computation,
                            ),
                        )
                    else:
                        still_waiting.append((ready_at, computation))
                self._delayed = still_waiting

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Counters plus gauges for ``/metrics`` and ``/healthz``."""
        with self.lock:
            running = sum(
                1
                for computation in self._inflight.values()
                if computation.state == JobState.RUNNING
            )
            data: Dict[str, object] = dict(self.counters)
            data["queued"] = self._queued
            data["running"] = running
            data["inflight_keys"] = len(self._inflight)
            data["workers"] = self.workers
            data["delayed"] = len(self._delayed)
            data["retry_after_seconds"] = self.retry_after_seconds()
            data["fleet"] = self.fleet.snapshot()
            return data
