"""The service's live event stream: one hub publisher, many HTTP clients.

A single :class:`~repro.telemetry.net.StreamPublisher` (the *hub*) is
the service-wide event spine:

* the scheduler publishes ``job`` frames on every state transition
  (queued → running → done/failed/cancelled, fleet re-dispatches);
* job execution binds a per-job stamped view of the hub as the thread's
  ambient publisher (:mod:`repro.service.progress`), so run-local
  telemetry — the closed-loop scenario's ``cache_event`` / ``score`` /
  ``alarm`` / ``flip`` frames, sweep ``progress`` marks — mirrors into
  the hub with a ``job_id`` stamp;
* HTTP handler threads attach bounded :class:`~repro.telemetry.net
  .StreamClient` queues, filtered by job and, with ``?type=``, by frame
  type (:meth:`ServiceStream.type_filter`), and write frames out as SSE
  or NDJSON (see :func:`write_stream`).

The hub assigns its own monotonically increasing event ids, which are
the ``Last-Event-ID`` resume cursor of the HTTP endpoints.  A slow or
disconnected consumer overflows *its own* client queue (drop-oldest,
counted in ``repro_stream_dropped_total``) — it can never stall the
scheduler loop or a running engine, whose publishes are lock-plus-append
only.

Isolate-mode caveat: jobs running in the process pool cannot mirror
run-local telemetry across the process boundary; their ``job`` frames
still stream (the scheduler publishes those under its lock).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.telemetry.net import (
    StreamClient,
    StreamFrame,
    StreamPublisher,
    ndjson_line,
    sse_block,
)

#: Frame type carrying scheduler job-state transitions.
JOB_FRAME = "job"

#: Content types of the two wire framings.
SSE_CONTENT_TYPE = "text/event-stream"
NDJSON_CONTENT_TYPE = "application/x-ndjson"


class ServiceStream:
    """The hub publisher plus the service-facing helpers around it."""

    def __init__(
        self, ring_capacity: int = 65536, client_capacity: int = 4096
    ) -> None:
        self.publisher = StreamPublisher(
            ring_capacity=ring_capacity, client_capacity=client_capacity
        )

    # -- scheduler side ------------------------------------------------
    def publish_job(self, job) -> StreamFrame:
        """Publish one job-state transition frame (scheduler loop only)."""
        spec = job.spec
        payload: Dict[str, object] = {
            "job_id": job.job_id,
            "state": job.state,
            "key": job.key,
            "experiment_id": (
                f"scenario:{spec.scenario.name}"
                if spec.scenario is not None
                else spec.experiment_id
            ),
        }
        if job.source is not None:
            payload["source"] = job.source
        if job.error is not None:
            payload["error"] = job.error
        return self.publisher.publish(JOB_FRAME, payload)

    # -- consumer side -------------------------------------------------
    def attach(
        self,
        last_event_id: Optional[int] = None,
        accepts: Optional[Callable[[StreamFrame], bool]] = None,
    ) -> StreamClient:
        return self.publisher.attach(
            last_event_id=last_event_id, accepts=accepts
        )

    def detach(self, client: StreamClient) -> None:
        self.publisher.detach(client)

    @staticmethod
    def job_filter(job_id: str) -> Callable[[StreamFrame], bool]:
        """Predicate keeping only frames stamped with ``job_id``."""

        def accepts(frame: StreamFrame) -> bool:
            return frame.payload.get("job_id") == job_id

        return accepts

    @staticmethod
    def job_state_filter(job_id: str) -> Callable[[StreamFrame], bool]:
        """Predicate keeping only ``job`` transition frames of ``job_id``."""

        def accepts(frame: StreamFrame) -> bool:
            return (
                frame.type == JOB_FRAME
                and frame.payload.get("job_id") == job_id
            )

        return accepts

    @staticmethod
    def type_filter(
        types: Iterable[str],
        accepts: Optional[Callable[[StreamFrame], bool]] = None,
    ) -> Callable[[StreamFrame], bool]:
        """Predicate keeping only frames of ``types`` that ``accepts`` keeps."""
        wanted = frozenset(types)

        def keeps(frame: StreamFrame) -> bool:
            return frame.type in wanted and (accepts is None or accepts(frame))

        return keeps

    def snapshot(self) -> Dict[str, object]:
        """Gauge view for ``/healthz`` and ``/metrics``."""
        return self.publisher.snapshot()


def negotiate_framing(
    accept_header: str, params: Dict[str, list]
) -> Tuple[bool, str]:
    """Pick the wire framing: ``(sse, content_type)``.

    ``?format=sse|ndjson`` wins; otherwise an ``Accept`` header naming
    ``text/event-stream`` selects SSE and everything else gets NDJSON
    (the API-friendly default).
    """
    fmt = (params.get("format") or [None])[0]
    if fmt == "sse":
        return True, SSE_CONTENT_TYPE
    if fmt == "ndjson":
        return False, NDJSON_CONTENT_TYPE
    if SSE_CONTENT_TYPE in (accept_header or ""):
        return True, SSE_CONTENT_TYPE
    return False, NDJSON_CONTENT_TYPE


def write_chunk(wfile, data: bytes) -> None:
    """Write one HTTP/1.1 chunked-transfer chunk (empty = terminator)."""
    if data:
        wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
    else:
        wfile.write(b"0\r\n\r\n")
    wfile.flush()


def write_stream(
    wfile,
    client: StreamClient,
    sse: bool,
    max_events: Optional[int] = None,
    heartbeat_seconds: float = 15.0,
) -> int:
    """Drain ``client`` onto a chunked HTTP body; returns frames sent.

    Blocks in the handler thread until the client is closed, the
    connection breaks (``BrokenPipeError`` et al. — the caller detaches)
    or ``max_events`` frames have been written (then the chunked body is
    terminated cleanly, which is how tests and one-shot consumers get a
    finite response).  While idle, SSE consumers get ``: keep-alive``
    comment chunks every ``heartbeat_seconds`` so proxies keep the
    connection open; NDJSON consumers just wait.
    """
    sent = 0
    while max_events is None or sent < max_events:
        frame = client.get(timeout=heartbeat_seconds)
        if frame is None:
            if client.closed:
                break
            if sse:
                write_chunk(wfile, b": keep-alive\n\n")
            continue
        write_chunk(wfile, sse_block(frame) if sse else ndjson_line(frame))
        sent += 1
    write_chunk(wfile, b"")
    return sent


def parse_frame_line(line: str) -> Optional[Dict[str, object]]:
    """Decode one NDJSON stream line; ``None`` for blanks/comments."""
    text = line.strip()
    if not text or text.startswith(":"):
        return None
    return json.loads(text)


__all__ = [
    "JOB_FRAME",
    "NDJSON_CONTENT_TYPE",
    "SSE_CONTENT_TYPE",
    "ServiceStream",
    "negotiate_framing",
    "parse_frame_line",
    "write_chunk",
    "write_stream",
]
