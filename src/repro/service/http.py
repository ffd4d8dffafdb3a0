"""Stdlib-only HTTP/JSON API over the scheduler and result store.

The server is a :class:`http.server.ThreadingHTTPServer`.  Handler
threads call the scheduler directly, and every store and telemetry call
they make runs under the scheduler's one lock
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
                                    framing
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
``internal`` (500).
"""

from __future__ import annotations

import json
import math
import pathlib
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

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
    429: "queue_full",
    500: "internal",
    503: "unavailable",
}


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


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests into the :class:`ServiceApp` on ``self.server``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # A response leaves as two writes (headers, then body).  With Nagle on,
    # a keep-alive connection holds the body until the client's delayed
    # ACK for the headers arrives, ~40 ms per request.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

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

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
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
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._respond(self._post)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond(self._get)

    def end_headers(self) -> None:
        self._response_started = True
        super().end_headers()

    def _respond(self, route) -> None:
        """Run ``route``; answer what it raises with the error envelope.

        An exception no typed error maps is a 500 ``internal`` with its
        traceback on stderr, unless response bytes already left: then the
        connection is dropped, as for an ``OSError`` while streaming.
        """
        self._response_started = False
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
        return "text/event-stream" in (self.headers.get("Accept") or "")

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
        The handler thread blocks here; a slow consumer overflows its
        own bounded queue and can never back-pressure the scheduler.
        """
        last_raw = self.headers.get("Last-Event-ID")
        if last_raw is None:
            last_raw = (params.get("last_event_id") or [None])[0]
        if last_raw is not None:
            try:
                last_event_id: Optional[int] = int(last_raw)
            except ValueError:
                raise ConfigurationError(
                    f"Last-Event-ID must be an integer, got {last_raw!r}"
                )
        else:
            last_event_id = 0 if default_replay else None
        max_raw = (params.get("max_events") or [None])[0]
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
        sse, content_type = negotiate_framing(
            self.headers.get("Accept") or "", params
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
        params = urllib.parse.parse_qs(parsed.query)
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


class ServiceServer(ThreadingHTTPServer):
    """HTTP server carrying its :class:`ServiceApp` for the handler."""

    daemon_threads = True
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
