"""Stdlib-only HTTP/JSON API over the scheduler and result store.

The server is a threading :mod:`socketserver` TCP server with a small
HTTP/1.1 layer of its own (:class:`ServiceHandler`): keep-alive,
``Content-Length`` bodies, ``Expect: 100-continue`` and
``http.server``'s input caps, but no ``http.server``, whose
``http.client`` would load ``ssl`` and the ``email`` package into every
serving process.  Handler threads call the scheduler directly, and every
store and telemetry call they make runs under the scheduler's one lock
(:attr:`repro.service.scheduler.JobScheduler.lock`), so scheduler *and
store* state change under that lock alone.

Routes
======

==================================  =========================================
``POST /jobs``                      submit a job; ``202`` queued/coalesced,
                                    ``200`` when memoised or ``wait`` given
                                    and the job finished, ``400`` invalid,
                                    ``429`` + ``Retry-After`` queue full,
                                    ``503`` + ``Retry-After`` draining or
                                    unhealthy fleet shedding load
``GET /jobs/{id}``                  job record; ``404`` unknown id; with
                                    ``?stream=1`` or an SSE ``Accept``,
                                    a live stream of the job's state
                                    transitions instead
``GET /jobs/{id}/events``           live SSE/NDJSON stream of every hub
                                    frame stamped with this job id
                                    (state transitions, mirrored run
                                    telemetry, progress marks)
``GET /events``                     the server-wide live event stream;
                                    ``Last-Event-ID`` (header or query)
                                    resumes, ``?max_events=N`` bounds,
                                    ``?format=sse|ndjson`` selects
                                    framing, ``?type=a,b`` keeps only
                                    frames of those types (also on
                                    ``/jobs/{id}/events``; empty is
                                    ``400``)
``GET /results/{key}``              the stored result blob, verbatim bytes
``GET /experiments``                registered experiment ids
``GET /healthz``                    liveness + queue/store/fleet/stream
                                    summary; ``503`` while draining
``GET /metrics``                    Prometheus text exposition
``GET /fleet``                      fleet view: workers, leases, dead letters
``POST /fleet/claim``               fleet worker asks for a leased job
``POST /fleet/leases/{id}/heartbeat``  renew a lease (``409`` when dead)
``POST /fleet/leases/{id}/complete``   upload the result blob for a lease
``POST /fleet/leases/{id}/fail``       report a deterministic failure
==================================  =========================================

The ``Retry-After`` hint on 429/503 is not a constant: it derives from
current queue depth, live worker count and the recent seconds-per-job
average (see :meth:`repro.service.scheduler.JobScheduler
.retry_after_seconds`).

``POST /jobs`` body::

    {"experiment_id": "fig6",          # either this ...
     "scenario": {...},                # ... or an inline ScenarioSpec dict
     "profile": "quick",               # name or RunProfile dict
     "seed": 0,
     "priority": 0,
     "timeout": null,                  # per-job seconds (isolate mode)
     "wait": false}                    # true/seconds: block for result

A ``scenario`` submission runs an arbitrary declarative
:class:`repro.scenario.ScenarioSpec` — no registry entry needed.  The
spec is schema-checked up front (malformed specs are a ``400``) and its
canonical form joins the cache key, so identical scenarios memoise and
dedup exactly like registered experiments.

Errors
======

Every non-2xx response carries one JSON envelope::

    {"error": {"code": "bad_request", "message": "..."}}

with ``code`` one of ``bad_request`` (400), ``not_found`` (404),
``conflict`` (409), ``queue_full`` (429), ``unavailable`` (503) or
``internal`` (500).  Requests the HTTP layer refuses before any route
runs get the same envelope, and the connection then closes: a malformed
request line, header or ``Content-Length`` (``bad_request``), a request
line over 65,536 bytes (``uri_too_long``, 414), a header line over
65,536 bytes or more than 100 headers (``headers_too_large``, 431), an
unknown method or a ``Transfer-Encoding`` body (``not_implemented``,
501), and an HTTP major version other than 1 (``version_not_supported``,
505).
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import signal
import socketserver
import sys
import threading
import time
import urllib.parse
from http import HTTPStatus
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError, ManifestError, ReproError
from repro.experiments.profiles import RunProfile
from repro.service.fleet import FleetConfig, FleetUnavailableError, LeaseError
from repro.service.metrics import ServiceTelemetry, now, render_prometheus
from repro.service.scheduler import (
    JobScheduler,
    JobSpec,
    JobState,
    QueueFullError,
    UnknownJobError,
)
from repro.service.store import ResultStore
from repro.service.stream import (
    ServiceStream,
    negotiate_framing,
    write_stream,
)

#: How long ``"wait": true`` blocks before answering 202 with the job
#: still running.
_MAX_WAIT_SECONDS = 3600.0

#: Machine-readable error codes in the JSON error envelope, by status.
_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    409: "conflict",
    414: "uri_too_long",
    429: "queue_full",
    431: "headers_too_large",
    500: "internal",
    501: "not_implemented",
    503: "unavailable",
    505: "version_not_supported",
}

#: Input caps, as ``http.server`` sets them: the longest request or
#: header line in bytes, and the most header lines in one request.
_MAX_LINE = 65536
_MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/([0-9])\.([0-9])")
_DECIMAL = re.compile(r"[0-9]{1,18}")

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

#: Control characters an access-log line escapes, as ``http.server`` does.
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_LOG_ESCAPES[ord("\\")] = "\\\\"


def _http_date() -> str:
    """The current time as an HTTP ``Date`` value, in English, in GMT."""
    year, month, day, hh, mm, ss, weekday = time.gmtime()[:7]
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _WEEKDAYS[weekday], day, _MONTHS[month - 1], year, hh, mm, ss,
    )


class ServiceApp:
    """The service's composition root: store + scheduler."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        queue_depth: int = 32,
        isolate: bool = False,
        telemetry: Optional[ServiceTelemetry] = None,
        fleet: Optional[FleetConfig] = None,
        stream: Optional[ServiceStream] = None,
    ) -> None:
        self.store = store
        self.telemetry = telemetry or ServiceTelemetry()
        self.stream = stream or ServiceStream()
        self.scheduler = JobScheduler(
            store,
            workers=workers,
            queue_depth=queue_depth,
            isolate=isolate,
            telemetry=self.telemetry,
            fleet=fleet,
            stream=self.stream,
        )
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceApp":
        if self.started_at is None:
            self.scheduler.start()
            self.started_at = now()
        return self

    def stop(self) -> None:
        self.scheduler.stop()
        self.started_at = None

    def __enter__(self) -> "ServiceApp":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request handling (each returns (status, body-dict-or-bytes))
    # ------------------------------------------------------------------
    def submit(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        spec = _spec_from_payload(payload)
        priority = _int_field(payload, "priority", 0)
        wait = _wait_field(payload)
        job = self.scheduler.submit(spec, priority=priority)
        if wait is not None:
            try:
                job = self.scheduler.wait(job.job_id, timeout=wait)
            except TimeoutError:
                pass  # fall through: report the still-running job as 202
        with self.scheduler.lock:
            status = 200 if job.state in JobState.TERMINAL else 202
            return status, job.to_dict()

    def job(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        with self.scheduler.lock:
            return 200, self.scheduler.job(job_id).to_dict()

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        with self.scheduler.lock:
            cancelled = self.scheduler.cancel(job_id)
            body = self.scheduler.job(job_id).to_dict()
        body["cancelled"] = cancelled
        return (200 if cancelled else 409), body

    def result_bytes(self, key: str) -> Optional[bytes]:
        with self.scheduler.lock:
            try:
                return self.store.get_bytes(key)
            except ManifestError:
                # Same self-healing as the scheduler: discard, miss.
                self.store.discard(key)
                return None

    def experiments(self) -> Tuple[int, Dict[str, object]]:
        from repro.experiments.registry import available_experiments

        return 200, {"experiments": available_experiments()}

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        from repro.orchestration import live_snapshots, orchestration_counters

        with self.scheduler.lock:
            # A draining service is deliberately not-ready: report 503 so
            # load balancers stop routing while in-flight work finishes.
            draining = bool(self.scheduler.fleet.draining)
            body = {
                "status": "draining" if draining else "ok",
                "uptime_seconds": round(now() - (self.started_at or now()), 3),
                "scheduler": self.scheduler.snapshot(),
                "store": self.store.stats.to_dict(),
                "telemetry": self.telemetry.summary(),
                "orchestration": {
                    "stream": self.stream.snapshot(),
                    "counters": orchestration_counters(),
                    "live": live_snapshots(),
                },
            }
            return (503 if draining else 200), body

    def metrics_text(self) -> str:
        from repro.orchestration import orchestration_counters

        with self.scheduler.lock:
            return render_prometheus(
                self.scheduler.snapshot(),
                self.store.stats.to_dict(),
                telemetry=self.telemetry,
                uptime_seconds=now() - (self.started_at or now()),
                stream=self.stream.snapshot(),
                orchestration=orchestration_counters(),
            )

    # ------------------------------------------------------------------
    # Fleet lease protocol (worker-facing)
    # ------------------------------------------------------------------
    def fleet_view(self) -> Tuple[int, Dict[str, object]]:
        with self.scheduler.lock:
            return 200, self.scheduler.fleet.snapshot()

    def fleet_claim(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        worker_id = _worker_id(payload)
        # Always 200: an idle poll is a successful claim attempt whose
        # body says "no work" (a 204 could not carry the JSON hints).
        return 200, self.scheduler.fleet_claim(worker_id)

    def fleet_heartbeat(
        self, lease_id: str, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        worker_id = _worker_id(payload)
        return 200, self.scheduler.fleet_heartbeat(lease_id, worker_id)

    def fleet_complete(
        self, lease_id: str, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        worker_id = _worker_id(payload)
        result = payload.get("result")
        wall = payload.get("wall_seconds", 0.0)
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            raise ConfigurationError(
                f"'wall_seconds' must be a number, got {wall!r}"
            )
        return 200, self.scheduler.fleet_complete(
            lease_id, worker_id, result, wall_seconds=float(wall)
        )

    def fleet_fail(
        self, lease_id: str, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        worker_id = _worker_id(payload)
        error = payload.get("error")
        if not isinstance(error, str) or not error:
            raise ConfigurationError(
                "'error' must be a non-empty string describing the failure"
            )
        return 200, self.scheduler.fleet_fail(lease_id, worker_id, error)

    def retry_after(self) -> int:
        """Current backpressure hint (see ``retry_after_seconds``)."""
        return self.scheduler.retry_after_seconds()


def _worker_id(payload: Dict[str, object]) -> str:
    worker_id = payload.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id:
        raise ConfigurationError(
            "fleet requests require a non-empty string 'worker_id'"
        )
    return worker_id


def _int_field(payload: Dict[str, object], name: str, default: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")
    return value


def _wait_field(payload: Dict[str, object]) -> Optional[float]:
    """Seconds ``POST /jobs`` blocks for the result; ``None`` answers at once."""
    wait = payload.get("wait", False)
    if isinstance(wait, bool):
        return _MAX_WAIT_SECONDS if wait else None
    if isinstance(wait, (int, float)) and math.isfinite(wait) and wait >= 0:
        if wait == 0:
            return None
        return min(float(wait), threading.TIMEOUT_MAX)
    raise ConfigurationError(
        f"'wait' must be a boolean or a non-negative number of seconds, "
        f"got {wait!r}"
    )


def _spec_from_payload(payload: Dict[str, object]) -> JobSpec:
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"job submission body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    scenario = None
    if payload.get("scenario") is not None:
        from repro.scenario.spec import ScenarioSpec

        if "experiment_id" in payload:
            raise ConfigurationError(
                "submit either 'experiment_id' or 'scenario', not both"
            )
        # from_dict is strict: unknown fields, missing/stale
        # schema_version and unknown kinds all raise ConfigurationError,
        # which this layer reports as a 400 bad_request.
        scenario = ScenarioSpec.from_dict(payload["scenario"])
        experiment_id = None
    else:
        experiment_id = payload.get("experiment_id")
        if not isinstance(experiment_id, str) or not experiment_id:
            raise ConfigurationError(
                "job submission requires a non-empty string 'experiment_id' "
                "or an inline 'scenario' spec object"
            )
    profile = payload.get("profile")
    if isinstance(profile, dict):
        profile = RunProfile.from_dict(profile)
    timeout = payload.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float))
    ):
        raise ConfigurationError(
            f"'timeout' must be a number of seconds or null, got {timeout!r}"
        )
    entry_point = payload.get("entry_point")
    if entry_point is not None and not isinstance(entry_point, str):
        raise ConfigurationError(
            f"'entry_point' must be a dotted-path string, got {entry_point!r}"
        )
    return JobSpec.create(
        experiment_id,
        profile=profile,
        seed=_int_field(payload, "seed", 0),
        timeout=None if timeout is None else float(timeout),
        entry_point=entry_point,
        scenario=scenario,
    )


class _RequestError(Exception):
    """A request the HTTP layer refuses before any route runs."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHandler(socketserver.StreamRequestHandler):
    """HTTP/1.1 on one connection; routes requests into the :class:`ServiceApp`.

    The handler parses the request line and headers itself, so a serving
    process loads neither ``http.server`` nor ``http.client`` (and through
    them ``ssl`` and the ``email`` package).  ``headers`` maps lower-cased
    names to values.  Connections are kept alive unless the request is
    HTTP/1.0 without ``Connection: keep-alive``, says ``Connection:
    close``, or was refused.  A body the route did not read is skipped
    before the next request, or the connection closes when it is large.
    """

    server_version = "repro-service/1"
    sys_version = "Python/" + sys.version.split()[0]
    protocol_version = "HTTP/1.1"
    # A response leaves as two writes (headers, then body).  With Nagle on,
    # a keep-alive connection holds the body until the client's delayed
    # ACK for the headers arrives, ~40 ms per request.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- protocol ------------------------------------------------------
    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        self.command = self.path = self.requestline = ""
        self.headers: Dict[str, str] = {}
        self._body_left = 0
        self._headers_buffer: List[bytes] = []
        self._response_started = False
        try:
            if not self._parse_request():
                self.close_connection = True
                return
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                raise _RequestError(
                    501, f"unsupported method {self.command!r}"
                )
        except _RequestError as exc:
            # Any body is still unread: answer, then close.
            self._send_error_json(exc.status, str(exc), {"Connection": "close"})
            return
        if self._expects_continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        method()
        # A body the route left unread: skip a small one, so that the next
        # request parses from its first byte; close rather than read a
        # large one.
        if self._body_left > _MAX_LINE:
            self.close_connection = True
        elif self._body_left:
            self._take_body()

    def _parse_request(self) -> bool:
        """Read the request line and headers; False once the client is gone.

        Raises :class:`_RequestError` for a request to refuse.
        """
        raw = self.rfile.readline(_MAX_LINE + 1)
        if len(raw) > _MAX_LINE:
            raise _RequestError(
                414, f"request line longer than {_MAX_LINE} bytes"
            )
        self.requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        version = _VERSION.fullmatch(words[-1]) if len(words) == 3 else None
        if version is None:
            raise _RequestError(
                400, f"malformed request line {self.requestline!r}"
            )
        if version.group(1) != "1":
            raise _RequestError(505, f"unsupported version {words[-1]!r}")
        self.command, self.path = words[0], words[1]
        self._read_headers()
        connection = {
            token.strip().lower()
            for token in self.headers.get("connection", "").split(",")
        }
        http_11 = version.group(2) != "0"
        if "close" in connection:
            self.close_connection = True
        elif not http_11:
            self.close_connection = "keep-alive" not in connection
        self._expects_continue = http_11 and (
            self.headers.get("expect", "").lower() == "100-continue"
        )
        if "transfer-encoding" in self.headers:
            raise _RequestError(
                501, "chunked request bodies are not supported; "
                     "send Content-Length"
            )
        length = self.headers.get("content-length", "0")
        if _DECIMAL.fullmatch(length) is None:
            raise _RequestError(400, f"malformed Content-Length {length!r}")
        self._body_left = int(length)
        return True

    def _read_headers(self) -> None:
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _RequestError(
                    431, f"header line longer than {_MAX_LINE} bytes"
                )
            if line in (b"\r\n", b"\n", b""):
                return
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or name.split() != [name]:
                raise _RequestError(400, f"malformed header line {line!r}")
            key, value = name.lower(), value.strip()
            if self.headers.setdefault(key, value) != value and (
                key == "content-length"
            ):
                raise _RequestError(400, "conflicting Content-Length headers")
        raise _RequestError(431, f"more than {_MAX_HEADERS} header lines")

    def send_response(self, code: int) -> None:
        self.log_message('"%s" %s -', self.requestline, code)
        phrase = HTTPStatus(code).phrase
        self._headers_buffer.append(
            f"{self.protocol_version} {code} {phrase}\r\n".encode("latin-1")
        )
        self.send_header("Server", f"{self.server_version} {self.sys_version}")
        self.send_header("Date", _http_date())

    def send_header(self, keyword: str, value: str) -> None:
        self._headers_buffer.append(f"{keyword}: {value}\r\n".encode("latin-1"))
        if keyword.lower() == "connection" and value.lower() == "close":
            self.close_connection = True

    def end_headers(self) -> None:
        self._response_started = True
        self._headers_buffer.append(b"\r\n")
        self.wfile.write(b"".join(self._headers_buffer))
        self._headers_buffer = []

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """One access-log line on stderr, in ``http.server``'s layout."""
        if getattr(self.server, "verbose", False):
            year, month, day, hh, mm, ss = time.localtime()[:6]
            sys.stderr.write(
                "%s - - [%02d/%s/%04d %02d:%02d:%02d] %s\n" % (
                    self.client_address[0], day, _MONTHS[month - 1], year,
                    hh, mm, ss, (format % args).translate(_LOG_ESCAPES),
                )
            )

    # -- plumbing ------------------------------------------------------
    def _send_json(self, status: int, body: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _send_error_json(self, status: int, message: str,
                         headers: Optional[Dict[str, str]] = None,
                         code: Optional[str] = None) -> None:
        """One error envelope for every endpoint: ``{"error": {code, message}}``."""
        self._send_json(
            status,
            {"error": {"code": code or _ERROR_CODES.get(status, "internal"),
                       "message": message}},
            headers,
        )

    def _take_body(self) -> bytes:
        """The request's ``Content-Length`` body; later calls get ``b""``."""
        length, self._body_left = self._body_left, 0
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> Dict[str, object]:
        raw = self._take_body()
        if not raw:
            raise ConfigurationError("request body must be a JSON object")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ConfigurationError("request body must be a JSON object")
        return body

    # -- methods -------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - dispatched as do_<method>
        self._respond(self._post)

    def do_GET(self) -> None:  # noqa: N802 - dispatched as do_<method>
        self._respond(self._get)

    def _respond(self, route) -> None:
        """Run ``route``; answer what it raises with the error envelope.

        An exception no typed error maps is a 500 ``internal`` with its
        traceback on stderr, unless response bytes already left: then the
        connection is dropped, as for an ``OSError`` while streaming.
        """
        try:
            route()
        except QueueFullError as exc:
            self._send_error_json(
                429, str(exc), {"Retry-After": str(self.app.retry_after())}
            )
        except FleetUnavailableError as exc:
            self._send_error_json(
                503, str(exc),
                {"Retry-After": str(int(max(1, exc.retry_after)))},
            )
        except LeaseError as exc:
            self._send_error_json(409, str(exc))
        except UnknownJobError as exc:
            self._send_error_json(404, str(exc))
        except ConfigurationError as exc:
            self._send_error_json(400, str(exc))
        except ReproError as exc:
            self._send_error_json(500, str(exc))
        except Exception as exc:  # noqa: BLE001 - the envelope promise
            if self._response_started:
                raise
            self.server.handle_error(self.request, self.client_address)
            self._send_error_json(
                500, f"internal error ({type(exc).__name__}); see the server log"
            )

    def _post(self) -> None:
        if self.path == "/jobs":
            status, body = self.app.submit(self._read_body())
            self._send_json(status, body)
        elif self.path.startswith("/jobs/") and self.path.endswith("/cancel"):
            job_id = self.path[len("/jobs/"):-len("/cancel")]
            status, body = self.app.cancel(job_id)
            self._send_json(status, body)
        elif self.path == "/fleet/claim":
            self._send_json(*self.app.fleet_claim(self._read_body()))
        elif self.path.startswith("/fleet/leases/"):
            rest = self.path[len("/fleet/leases/"):]
            lease_id, _, action = rest.rpartition("/")
            body = self._read_body()
            if action == "heartbeat":
                self._send_json(*self.app.fleet_heartbeat(lease_id, body))
            elif action == "complete":
                self._send_json(*self.app.fleet_complete(lease_id, body))
            elif action == "fail":
                self._send_json(*self.app.fleet_fail(lease_id, body))
            else:
                self._send_error_json(
                    404, f"no fleet lease action {action!r}"
                )
        else:
            self._send_error_json(404, f"no POST route {self.path!r}")

    # -- live event streaming ------------------------------------------
    def _wants_stream(self, params: Dict[str, list]) -> bool:
        """``?stream=1`` or an SSE ``Accept`` upgrades a job GET."""
        flag = (params.get("stream") or ["0"])[0]
        if flag not in ("", "0", "false", "no"):
            return True
        return "text/event-stream" in self.headers.get("accept", "")

    def _stream_events(
        self,
        params: Dict[str, list],
        accepts=None,
        default_replay: bool = False,
    ) -> None:
        """Serve one chunked SSE/NDJSON stream off the hub publisher.

        ``Last-Event-ID`` (header or ``?last_event_id=``) resumes past
        frames the replay ring still holds; ``default_replay`` starts
        per-job streams from the beginning of the ring so a late
        subscriber still sees the job's earlier transitions.
        ``?max_events=N`` terminates the chunked body after N frames —
        the finite-response mode tests and one-shot consumers use.
        ``?type=a,b`` queues only frames of those types for this client,
        AND-ed with ``accepts``, so a busy hub cannot crowd them out of
        its bounded queue.
        The handler thread blocks here; a slow consumer overflows its
        own bounded queue and can never back-pressure the scheduler.
        """
        last_raw = self.headers.get("last-event-id")
        if last_raw is None:
            last_raw = (params.get("last_event_id") or [""])[0] or None
        if last_raw is not None:
            try:
                last_event_id: Optional[int] = int(last_raw)
            except ValueError:
                raise ConfigurationError(
                    f"Last-Event-ID must be an integer, got {last_raw!r}"
                )
        else:
            last_event_id = 0 if default_replay else None
        max_raw = (params.get("max_events") or [""])[0] or None
        max_events: Optional[int] = None
        if max_raw is not None:
            try:
                max_events = int(max_raw)
            except ValueError:
                raise ConfigurationError(
                    f"max_events must be an integer, got {max_raw!r}"
                )
            if max_events <= 0:
                raise ConfigurationError(
                    f"max_events must be positive, got {max_events}"
                )
        types = params.get("type")
        if types is not None:
            names = {name for value in types for name in value.split(",") if name}
            if not names:
                raise ConfigurationError("type must name at least one frame type")
            accepts = ServiceStream.type_filter(names, accepts)
        sse, content_type = negotiate_framing(
            self.headers.get("accept", ""), params
        )
        client = self.app.stream.attach(
            last_event_id=last_event_id, accepts=accepts
        )
        try:
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Cache-Control", "no-store")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            write_stream(
                self.wfile, client, sse, max_events=max_events
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # consumer went away; detach below
        finally:
            self.app.stream.detach(client)
            self.close_connection = True

    def _get(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        params = urllib.parse.parse_qs(parsed.query, keep_blank_values=True)
        if path == "/healthz":
            self._send_json(*self.app.healthz())
        elif path == "/metrics":
            text = self.app.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(text)))
            self.end_headers()
            self.wfile.write(text)
        elif path == "/experiments":
            self._send_json(*self.app.experiments())
        elif path == "/fleet":
            self._send_json(*self.app.fleet_view())
        elif path == "/events":
            self._stream_events(params)
        elif path.startswith("/jobs/") and path.endswith("/events"):
            job_id = path[len("/jobs/"):-len("/events")]
            self.app.job(job_id)  # 404 before committing to a stream
            self._stream_events(
                params,
                accepts=ServiceStream.job_filter(job_id),
                default_replay=True,
            )
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if self._wants_stream(params):
                self.app.job(job_id)
                self._stream_events(
                    params,
                    accepts=ServiceStream.job_state_filter(job_id),
                    default_replay=True,
                )
            else:
                self._send_json(*self.app.job(job_id))
        elif path.startswith("/results/"):
            key = path[len("/results/"):]
            blob = self.app.result_bytes(key)
            if blob is None:
                self._send_error_json(
                    404,
                    f"no stored result for key {key!r}; "
                    f"submit the job to (re)compute it",
                )
            else:
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)
        else:
            self._send_error_json(404, f"no GET route {path!r}")


class ServiceServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """Threaded HTTP server carrying its :class:`ServiceApp` for the handler."""

    daemon_threads = True
    allow_reuse_address = True
    #: Accept backlog.  The stdlib default of 5 drops connections
    #: (ECONNRESET) under saturation bursts — a whole fleet of workers
    #: claiming/heartbeating while a submission burst lands.
    request_queue_size = 128

    def __init__(self, address, app: ServiceApp, verbose: bool = False) -> None:
        super().__init__(address, ServiceHandler)
        self.app = app
        self.verbose = verbose


def make_server(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceServer:
    """Bind (port ``0`` = ephemeral) without starting the accept loop."""
    return ServiceServer((host, port), app, verbose=verbose)


def serve(
    store_root: Union[str, pathlib.Path],
    host: str = "127.0.0.1",
    port: int = 8321,
    capacity_bytes: Optional[int] = None,
    workers: int = 2,
    queue_depth: int = 32,
    isolate: bool = False,
    window: int = 64,
    verbose: bool = True,
    fleet: Optional[FleetConfig] = None,
    drain_timeout: float = 30.0,
) -> None:
    """Blocking entry point used by ``python -m repro.service``.

    SIGTERM triggers a graceful drain (mirroring the runner's SIGINT
    handling): new submissions shed with 503, no new leases are
    granted, in-flight leases get up to ``drain_timeout`` seconds to
    finish, then the server exits.
    """
    store = ResultStore(store_root, capacity_bytes=capacity_bytes)
    app = ServiceApp(
        store,
        workers=workers,
        queue_depth=queue_depth,
        isolate=isolate,
        telemetry=ServiceTelemetry(window=window),
        fleet=fleet,
    )
    with app:
        server = make_server(app, host=host, port=port, verbose=verbose)
        bound_host, bound_port = server.server_address[:2]
        print(
            f"repro-service listening on http://{bound_host}:{bound_port} "
            f"(store={store.root}, workers={workers}, "
            f"queue_depth={queue_depth}, isolate={isolate})",
            flush=True,
        )

        def _drain_then_stop() -> None:
            drained = app.scheduler.drain(timeout=drain_timeout)
            print(
                "drained cleanly" if drained
                else "drain timed out; stopping with leases outstanding",
                flush=True,
            )
            # shutdown() must come from another thread than serve_forever.
            server.shutdown()

        def _handle_sigterm(signum, frame) -> None:
            del signum, frame
            print("SIGTERM: draining in-flight leases", flush=True)
            threading.Thread(target=_drain_then_stop, daemon=True).start()

        previous = signal.signal(signal.SIGTERM, _handle_sigterm)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.shutdown()
            server.server_close()
