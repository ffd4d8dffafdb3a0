"""Per-job ambient stream binding.

The scheduler runs each computation on a worker thread; wrapping the
computation in :func:`job_publisher_scope` binds a job-stamped view of
the service hub as that thread's ambient publisher
(:func:`repro.telemetry.net.bind_publisher`).  Everything published
through the ambient binding — a closed-loop run mirroring its
``cache_event`` / ``score`` / ``alarm`` / ``flip`` frames, a sweep
publishing a ``progress`` frame between points — lands on the hub
stamped with ``job_id``, which is what the ``GET /jobs/{id}/events``
filter selects on.

Deep layers never import the service: they call
:func:`~repro.telemetry.net.publish_ambient`, which is a no-op when
nothing is bound — zero cost outside the service, no effect on run
determinism inside it (the hub assigns its own event ids; run-local id
sequences are untouched).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.telemetry.net import StreamPublisher, bind_publisher


class JobStampedPublisher:
    """A publisher view that stamps every payload with one ``job_id``."""

    def __init__(self, hub: StreamPublisher, job_id: str) -> None:
        self.hub = hub
        self.job_id = job_id

    def publish(self, type: str, payload: Dict[str, object]):
        stamped = dict(payload)
        stamped.setdefault("job_id", self.job_id)
        return self.hub.publish(type, stamped)


@contextmanager
def job_publisher_scope(
    hub: Optional[StreamPublisher], job_id: str
) -> Iterator[None]:
    """Bind a job-stamped hub view as this thread's ambient publisher."""
    if hub is None:
        yield
        return
    previous = bind_publisher(JobStampedPublisher(hub, job_id))
    try:
        yield
    finally:
        bind_publisher(previous)


__all__ = ["JobStampedPublisher", "job_publisher_scope"]
