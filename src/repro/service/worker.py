"""Fleet worker: claims leased jobs over HTTP and computes them.

One :class:`FleetWorker` is one worker process (or thread, in tests)
driving the lease protocol end to end against a running service:

1. ``POST /fleet/claim`` — claim the highest-priority queued job; the
   grant carries a TTL lease and the full job payload.
2. A heartbeat thread renews the lease every ``ttl / 3`` seconds while
   the experiment computes in the main thread (through the same
   :func:`repro.runner.pool.execute_task_payload` path the in-process
   scheduler uses, so results are bit-identical by construction).
3. ``POST /fleet/leases/{id}/complete`` uploads the result blob; a 409
   means the lease expired underneath us and someone else owns the job
   now — the worker drops the result on the floor, *never* retries the
   upload (the re-dispatched attempt recomputes the same bytes).
4. Deterministic experiment failures report through ``.../fail``.

Chaos: given a :class:`~repro.faults.spec.FaultSpec` and a seed, the
worker materialises :func:`repro.faults.fleet.fleet_fault_decision` per
``(job key, lease attempt)`` and misbehaves accordingly — crash
(abandon silently), hang (sit out the TTL), stale heartbeat (compute
but stop renewing, then watch the late upload bounce), dropped upload,
slow store (stall, then upload normally).  Because the decision is a
pure function of the spec, seed, key and attempt, a chaos campaign is
reproducible regardless of worker count or claim order.

Run one from the command line::

    python -m repro.service.worker --url http://127.0.0.1:8321 \
        --worker-id w0 --idle-exit 30

SIGTERM drains: the worker finishes (and uploads) its current lease,
then exits without claiming another.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
import urllib.error
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.experiments.profiles import RunProfile
from repro.faults.fleet import FleetFaultDecision, fleet_fault_decision
from repro.faults.spec import FaultSpec
from repro.runner.pool import execute_task_payload
from repro.runner.sharding import TaskSpec
from repro.service.client import ServiceClient, ServiceError

#: Transport-error retry delay (the service restarting, a partition).
_TRANSPORT_RETRY_SECONDS = 0.5


class FleetWorker:
    """One lease-protocol worker; ``run()`` blocks until drained/stopped."""

    def __init__(
        self,
        url: str,
        worker_id: str,
        poll_seconds: float = 0.2,
        faults: Optional[FaultSpec] = None,
        fault_seed: int = 0,
        max_jobs: Optional[int] = None,
        idle_exit_seconds: Optional[float] = None,
        client_timeout: float = 60.0,
    ) -> None:
        if not worker_id:
            raise ConfigurationError("fleet worker needs a worker_id")
        self.client = ServiceClient(url, timeout=client_timeout)
        self.worker_id = worker_id
        self.poll_seconds = poll_seconds
        self.faults = faults
        self.fault_seed = fault_seed
        self.max_jobs = max_jobs
        self.idle_exit_seconds = idle_exit_seconds
        self._stop = threading.Event()
        #: Local tallies (the scheduler keeps the authoritative ones).
        self.counters: Dict[str, int] = {
            "claims": 0,
            "completed": 0,
            "failed": 0,
            "chaos_crash": 0,
            "chaos_hang": 0,
            "chaos_stale_heartbeat": 0,
            "chaos_drop_upload": 0,
            "chaos_slow_store": 0,
            "uploads_rejected": 0,
            "transport_errors": 0,
        }

    def stop(self) -> None:
        """Ask the worker to drain: finish the current lease, then exit."""
        self._stop.set()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Claim/compute/upload until drained, stopped, or idle-expired."""
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            try:
                grant = self.client.fleet_claim(self.worker_id)
            except (ServiceError, urllib.error.URLError, OSError):
                self.counters["transport_errors"] += 1
                if self._sleep(_TRANSPORT_RETRY_SECONDS):
                    break
                continue
            if grant.get("draining"):
                break
            if not grant.get("lease"):
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    self.idle_exit_seconds is not None
                    and now - idle_since >= self.idle_exit_seconds
                ):
                    break
                retry = grant.get("retry_seconds") or self.poll_seconds
                if self._sleep(min(float(retry), self.poll_seconds)):
                    break
                continue
            idle_since = None
            self.counters["claims"] += 1
            self._run_lease(grant)
            if (
                self.max_jobs is not None
                and self.counters["claims"] >= self.max_jobs
            ):
                break
        return dict(self.counters)

    def _sleep(self, seconds: float) -> bool:
        """Interruptible sleep; ``True`` when a stop was requested."""
        return self._stop.wait(seconds)

    # ------------------------------------------------------------------
    # One lease
    # ------------------------------------------------------------------
    def _run_lease(self, grant: Dict[str, object]) -> None:
        lease = grant["lease"]  # type: ignore[assignment]
        lease_id = lease["lease_id"]  # type: ignore[index]
        key = lease["key"]  # type: ignore[index]
        attempt = int(lease["attempt"])  # type: ignore[index]
        ttl = float(lease["ttl"])  # type: ignore[index]
        decision = self._decide(key, attempt)

        if decision.crash:
            # A crashed worker says nothing: no heartbeat, no upload.
            # The lease expires and the supervisor re-dispatches.
            self.counters["chaos_crash"] += 1
            return
        if decision.hang:
            # A wedged worker holds the lease past its TTL doing nothing.
            self.counters["chaos_hang"] += 1
            self._sleep(ttl * 1.5)
            return

        task = _task_from_grant(grant["job"])  # type: ignore[arg-type]
        heartbeats = not decision.stale_heartbeat
        beat = _Heartbeat(self.client, lease_id, self.worker_id, ttl / 3.0)
        if heartbeats:
            beat.start()
        try:
            started = time.perf_counter()
            try:
                payload = execute_task_payload(task)
            except Exception as exc:  # noqa: BLE001 - deterministic failure
                beat.stop()
                self._report_failure(lease_id, f"{type(exc).__name__}: {exc}")
                return
            wall = time.perf_counter() - started

            if decision.stale_heartbeat:
                # Heartbeats never ran: wait out the TTL so the lease is
                # dead, then try the upload anyway — it must bounce 409.
                self.counters["chaos_stale_heartbeat"] += 1
                self._sleep(ttl * 1.5)
            if decision.drop_upload:
                self.counters["chaos_drop_upload"] += 1
                return
            if decision.slow_store:
                # Store interaction stalls but heartbeats keep flowing,
                # so the lease survives and the upload lands normally.
                self.counters["chaos_slow_store"] += 1
                self._sleep(decision.store_slow_seconds)
            try:
                self.client.fleet_complete(
                    lease_id,
                    self.worker_id,
                    payload["result"],
                    wall_seconds=wall,
                )
                self.counters["completed"] += 1
            except ServiceError as exc:
                if exc.status == 409:
                    self.counters["uploads_rejected"] += 1
                else:
                    raise
            except (urllib.error.URLError, OSError):
                self.counters["transport_errors"] += 1
        finally:
            beat.stop()

    def _decide(self, key: str, attempt: int) -> FleetFaultDecision:
        if self.faults is None:
            return FleetFaultDecision()
        return fleet_fault_decision(self.faults, self.fault_seed, key, attempt)

    def _report_failure(self, lease_id: str, error: str) -> None:
        try:
            self.client.fleet_fail(lease_id, self.worker_id, error)
            self.counters["failed"] += 1
        except (ServiceError, urllib.error.URLError, OSError):
            self.counters["transport_errors"] += 1


class _Heartbeat:
    """Daemon thread renewing one lease until stopped (or it dies)."""

    def __init__(
        self,
        client: ServiceClient,
        lease_id: str,
        worker_id: str,
        interval: float,
    ) -> None:
        self._client = client
        self._lease_id = lease_id
        self._worker_id = worker_id
        self._interval = max(0.01, interval)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._done.wait(self._interval):
            try:
                self._client.fleet_heartbeat(self._lease_id, self._worker_id)
            except ServiceError as exc:
                if exc.status == 409:
                    return  # lease expired underneath us; stop renewing
            except (urllib.error.URLError, OSError):
                continue  # transient; the next beat may get through


def _task_from_grant(job: Dict[str, object]) -> TaskSpec:
    """Rebuild the runner task from a claim grant's job payload."""
    return TaskSpec(
        task_id=str(job["experiment_id"]),
        experiment_id=str(job["experiment_id"]),
        seed=int(job["seed"]),  # type: ignore[arg-type]
        profile=RunProfile.from_dict(job["profile"]),  # type: ignore[arg-type]
        timeout=job.get("timeout"),  # type: ignore[arg-type]
        entry_point=job.get("entry_point"),  # type: ignore[arg-type]
        scenario=job.get("scenario"),  # type: ignore[arg-type]
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Fleet worker: pull leased jobs from a repro service.",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8321")
    parser.add_argument("--worker-id", default=None)
    parser.add_argument(
        "--poll", type=float, default=0.2,
        help="idle poll interval in seconds (default 0.2)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after claiming this many jobs",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=None,
        help="exit after this many consecutive idle seconds",
    )
    parser.add_argument(
        "--fault-intensity", type=float, default=0.0,
        help="scale the default fleet chaos regime (0 = no chaos)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for deterministic chaos decisions",
    )
    args = parser.parse_args(argv)

    worker_id = args.worker_id or f"worker-{int(time.time() * 1000) % 100000}"
    faults = None
    if args.fault_intensity > 0:
        from repro.faults.fleet import DEFAULT_FLEET_FAULT_SPEC

        faults = DEFAULT_FLEET_FAULT_SPEC.scaled(args.fault_intensity)
    worker = FleetWorker(
        args.url,
        worker_id,
        poll_seconds=args.poll,
        faults=faults,
        fault_seed=args.fault_seed,
        max_jobs=args.max_jobs,
        idle_exit_seconds=args.idle_exit,
    )

    def _handle_sigterm(signum, frame) -> None:
        del signum, frame
        worker.stop()

    signal.signal(signal.SIGTERM, _handle_sigterm)
    counters = worker.run()
    print(
        f"{worker_id}: claims={counters['claims']} "
        f"completed={counters['completed']} failed={counters['failed']} "
        f"uploads_rejected={counters['uploads_rejected']}",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
