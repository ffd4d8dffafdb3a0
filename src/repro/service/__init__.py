"""Experiment service layer: memoised serving of experiment results.

Three layers turn the offline reproduction into something that can sit
behind traffic (the ROADMAP's north star):

* :mod:`repro.service.store` — a **content-addressed result store**: one
  durable JSON blob per canonical cache key (see
  :mod:`repro.service.keys`), with LRU size-capped eviction and hit/miss
  counters.  Blobs are exactly ``ExperimentResult.to_json()`` bytes, so a
  stored result is bit-identical to a direct :mod:`repro.runner` run.
* :mod:`repro.service.scheduler` — a **threaded job scheduler**: worker
  threads under one lock over the existing runner execution engine,
  with a priority queue, per-key in-flight deduplication (N identical
  submissions coalesce into one computation), bounded queue depth with
  explicit backpressure, cancellation, and the runner's per-job timeout /
  crash retry when process isolation is on.
* :mod:`repro.service.http` — a **stdlib-only HTTP/JSON API**
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /results/{key}``,
  ``GET /experiments``, ``GET /healthz``, ``GET /metrics``) whose
  Prometheus metrics are fed by the telemetry
  :class:`~repro.telemetry.subscribers.WindowedCounters` /
  :class:`~repro.telemetry.subscribers.BusProfiler` machinery
  (:mod:`repro.service.metrics`).
* :mod:`repro.service.stream` + :mod:`repro.service.progress` — **live
  event streaming**: a hub :class:`~repro.telemetry.net.StreamPublisher`
  carrying scheduler ``job`` transitions plus per-job mirrored run
  telemetry (closed-loop scores/alarms/flips, sweep progress marks),
  served as SSE/NDJSON over ``GET /events`` and
  ``GET /jobs/{id}/events`` with ``Last-Event-ID`` resume and bounded
  per-client queues — a slow consumer drops frames, never stalls a run.
* :mod:`repro.service.fleet` + :mod:`repro.service.worker` — a
  **crash-safe distributed worker fleet**: external worker processes
  claim jobs through a TTL lease protocol (``POST /fleet/claim``),
  renew with heartbeats and upload result blobs; a supervisor thread
  expires dead leases, re-dispatches with capped deterministic backoff,
  and quarantines poison jobs into a ``dead_letter`` state.  With zero
  live workers the scheduler degrades gracefully back to the in-process
  pool path.

Quick start::

    from repro.service import JobScheduler, JobSpec, ResultStore

    store = ResultStore("results-store")
    with JobScheduler(store, workers=2) as scheduler:
        job = scheduler.submit(JobSpec.create("fig6", profile="quick"))
        job = scheduler.wait(job.job_id)
        print(store.get(job.key).render())

or, over HTTP: ``python -m repro.service --port 8321`` and see the
README's "Serving experiments" section for curl examples.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fleet": ("FleetConfig", "FleetUnavailableError", "LeaseError"),
        "keys": ("KEY_SCHEMA_VERSION", "cache_key", "key_material"),
        "metrics": ("ServiceTelemetry", "render_prometheus"),
        "scheduler": (
            "JobScheduler",
            "JobSpec",
            "JobState",
            "QueueFullError",
            "UnknownJobError",
        ),
        "store": ("ResultStore", "StoreStats"),
        "stream": ("ServiceStream",),
        "worker": ("FleetWorker",),
    },
)
