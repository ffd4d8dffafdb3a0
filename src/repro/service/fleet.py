"""Lease protocol state for the distributed worker fleet.

The scheduler hands work to external worker processes through *leases*:
a worker claims the highest-priority queued computation and receives a
TTL lease keyed by the job's content address.  While it computes, it
renews the lease with heartbeats; on completion it uploads the result
blob under the same lease.  A supervisor loop inside the scheduler
watches the clock: a lease whose TTL elapses without renewal — the
worker crashed, hung, or got partitioned — is *expired*, and its
computation re-enters the queue after a capped exponential backoff with
deterministic jitter (the runner pool's crash-retry curve, capped).
After ``dead_letter_after`` failed leases the computation is quarantined
into the ``dead_letter`` terminal state instead of retrying forever.

This module holds the passive state — configuration, lease and worker
records, the fleet counter set — plus the pure timing helpers.  All
mutation happens inside :class:`repro.service.scheduler.JobScheduler`
under its one lock, so the protocol needs no lock of its own.

Correctness notes:

* **No double-run:** a computation is only ever *either* on the heap,
  *or* in the delayed (backoff) list, *or* held by exactly one live
  lease.  Expiry moves it lease → delayed; claim moves it heap → lease.
  A worker that keeps computing after its lease expired can finish, but
  its upload quotes a dead ``lease_id`` and is rejected — the re-run's
  result (bit-identical by construction) is the one stored.
* **No torn blobs:** uploads go through
  :meth:`repro.service.store.ResultStore.put` (atomic temp +
  ``os.replace``), and a worker dying mid-upload simply never completes
  its lease — the supervisor re-dispatches and the store's
  discard-and-recompute self-healing covers any corruption beyond that.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.runner.pool import crash_backoff_seconds

#: Terminal state for poison jobs (lives beside the JobState strings).
DEAD_LETTER = "dead_letter"


class LeaseError(ReproError):
    """A lease operation quoted an unknown, expired, or foreign lease.

    Maps to HTTP 409: the worker's view of the lease diverged from the
    scheduler's (usually because the supervisor already expired it and
    re-dispatched the job).  The correct worker reaction is to drop the
    work item on the floor — someone else owns it now.
    """


class FleetUnavailableError(ReproError):
    """The fleet cannot accept new work right now (HTTP 503).

    Raised on submission when the service is draining for shutdown or
    when ``min_workers`` live workers are required but absent.  Carries
    the retry hint the HTTP layer surfaces as ``Retry-After``.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs for the lease protocol (all times in seconds)."""

    #: Lease TTL: a worker must heartbeat within this window or the
    #: supervisor declares it dead and re-dispatches the job.
    lease_ttl: float = 10.0
    #: Quarantine a job into dead-letter after this many failed leases.
    dead_letter_after: int = 3
    #: With fewer live workers than this, submissions shed with 503
    #: instead of queueing (0 = degrade to the in-process pool instead).
    min_workers: int = 0
    #: A worker with no heartbeat or claim for this long is dropped from
    #: the live set (``None``: same as the lease TTL).
    worker_ttl: Optional[float] = None
    #: Cap on the exponential re-dispatch backoff base.
    backoff_cap: float = 5.0
    #: Supervisor tick period (``None``: lease_ttl / 4, clamped).
    supervisor_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ConfigurationError(
                f"lease_ttl must be positive, got {self.lease_ttl}"
            )
        if self.dead_letter_after < 1:
            raise ConfigurationError(
                f"dead_letter_after must be >= 1, got {self.dead_letter_after}"
            )
        if self.min_workers < 0:
            raise ConfigurationError(
                f"min_workers must be >= 0, got {self.min_workers}"
            )
        if self.backoff_cap <= 0:
            raise ConfigurationError(
                f"backoff_cap must be positive, got {self.backoff_cap}"
            )

    @property
    def effective_worker_ttl(self) -> float:
        return self.worker_ttl if self.worker_ttl is not None else self.lease_ttl

    @property
    def effective_supervisor_interval(self) -> float:
        if self.supervisor_interval is not None:
            return self.supervisor_interval
        return min(1.0, max(0.02, self.lease_ttl / 4.0))


@dataclass
class Lease:
    """One live claim of one computation by one worker."""

    lease_id: str
    key: str
    worker_id: str
    attempt: int
    granted_at: float
    expires_at: float
    renewals: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "lease_id": self.lease_id,
            "key": self.key,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "renewals": self.renewals,
        }


@dataclass
class WorkerInfo:
    """Liveness record and per-worker counters for one fleet worker."""

    worker_id: str
    first_seen: float
    last_seen: float
    claims: int = 0
    completed: int = 0
    failed: int = 0

    def to_dict(self, now: float, ttl: float) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "live": (now - self.last_seen) <= ttl,
            "age_seconds": round(now - self.last_seen, 3),
            "claims": self.claims,
            "completed": self.completed,
            "failed": self.failed,
        }


def new_lease_id() -> str:
    """Opaque lease token; unguessable so a stale worker cannot forge a
    successor lease after expiry re-dispatch."""
    return f"lease-{os.urandom(16).hex()}"


def lease_backoff_seconds(key: str, attempt: int, cap: float) -> float:
    """Re-dispatch delay after ``attempt`` failed leases of job ``key``.

    The runner pool's deterministic crash-retry curve (exponential with
    seeded jitter derived from the id), capped so a poison-adjacent job
    never parks for minutes: attempt 1 → ~0.25 s, doubling up to
    ``cap`` (pre-jitter).
    """
    return crash_backoff_seconds(f"lease/{key}", attempt + 1, cap=cap)


@dataclass
class FleetState:
    """All lease-protocol state, guarded by the scheduler's lock.

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so the
    expiry tests can march time forward without sleeping.
    """

    config: FleetConfig = field(default_factory=FleetConfig)
    clock: object = time.monotonic
    leases: Dict[str, Lease] = field(default_factory=dict)
    workers: Dict[str, WorkerInfo] = field(default_factory=dict)
    #: Dead-letter records: {key, experiment_id, lease_history}.
    dead_letters: List[Dict[str, object]] = field(default_factory=list)
    draining: bool = False
    counters: Dict[str, int] = field(
        default_factory=lambda: {
            "leases_granted": 0,
            "leases_renewed": 0,
            "leases_expired": 0,
            "redispatches": 0,
            "dead_letter": 0,
            "uploads_rejected": 0,
            "fleet_completed": 0,
            "fleet_failed": 0,
            "shed": 0,
        }
    )

    def now(self) -> float:
        return self.clock()  # type: ignore[operator]

    def touch_worker(self, worker_id: str) -> WorkerInfo:
        """Record a sign of life from ``worker_id`` (registering it)."""
        now = self.now()
        info = self.workers.get(worker_id)
        if info is None:
            info = WorkerInfo(
                worker_id=worker_id, first_seen=now, last_seen=now
            )
            self.workers[worker_id] = info
        else:
            info.last_seen = now
        return info

    def live_workers(self) -> List[WorkerInfo]:
        """Workers heard from within the worker TTL.

        Iterates a snapshot, so a caller outside the scheduler's lock
        may register a worker meanwhile.
        """
        now = self.now()
        ttl = self.config.effective_worker_ttl
        return [
            info
            for info in list(self.workers.values())
            if (now - info.last_seen) <= ttl
        ]

    def grant(self, key: str, worker_id: str, attempt: int) -> Lease:
        """Mint a lease for ``key`` held by ``worker_id``."""
        now = self.now()
        lease = Lease(
            lease_id=new_lease_id(),
            key=key,
            worker_id=worker_id,
            attempt=attempt,
            granted_at=now,
            expires_at=now + self.config.lease_ttl,
        )
        self.leases[lease.lease_id] = lease
        self.counters["leases_granted"] += 1
        return lease

    def checked(self, lease_id: str, worker_id: Optional[str] = None) -> Lease:
        """The live lease ``lease_id``, or a loud :class:`LeaseError`."""
        lease = self.leases.get(lease_id)
        if lease is None:
            raise LeaseError(
                f"no live lease {lease_id!r} (expired and re-dispatched, "
                f"or never granted); drop the work item"
            )
        if worker_id is not None and lease.worker_id != worker_id:
            raise LeaseError(
                f"lease {lease_id!r} belongs to worker "
                f"{lease.worker_id!r}, not {worker_id!r}"
            )
        return lease

    def renew(self, lease_id: str, worker_id: Optional[str] = None) -> Lease:
        """Heartbeat: push the lease's expiry out by one TTL."""
        lease = self.checked(lease_id, worker_id)
        lease.expires_at = self.now() + self.config.lease_ttl
        lease.renewals += 1
        self.counters["leases_renewed"] += 1
        if worker_id is not None:
            self.touch_worker(worker_id)
        return lease

    def release(self, lease_id: str) -> Optional[Lease]:
        """Drop a lease from the live set (completion, failure, expiry)."""
        return self.leases.pop(lease_id, None)

    def expired_leases(self) -> List[Lease]:
        """Leases whose TTL has elapsed, oldest expiry first."""
        now = self.now()
        stale = [
            lease for lease in self.leases.values() if lease.expires_at < now
        ]
        stale.sort(key=lambda lease: lease.expires_at)
        return stale

    def snapshot(self) -> Dict[str, object]:
        """JSON view for ``/healthz``, ``/metrics`` and ``GET /fleet``."""
        now = self.now()
        ttl = self.config.effective_worker_ttl
        workers = [
            info.to_dict(now, ttl)
            for info in sorted(self.workers.values(), key=lambda w: w.worker_id)
        ]
        return {
            "workers": workers,
            "workers_live": sum(1 for w in workers if w["live"]),
            "leases_active": len(self.leases),
            "leases": [
                lease.to_dict()
                for lease in sorted(
                    self.leases.values(), key=lambda item: item.lease_id
                )
            ],
            "dead_letters": list(self.dead_letters),
            "draining": self.draining,
            "counters": dict(self.counters),
        }
