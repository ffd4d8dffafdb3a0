"""Minimal stdlib client for the service API (urllib, no dependencies).

Used by the load-test script and the test suite; handy interactively::

    from repro.service.client import ServiceClient
    client = ServiceClient("http://127.0.0.1:8321")
    job = client.submit("fig6", profile="quick", wait=True)
    result = client.result(job["result_key"])
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.common.errors import ReproError
from repro.experiments.base import ExperimentResult
from repro.service.stream import parse_frame_line

#: Job states a poll loop can stop on (mirrors ``JobState.TERMINAL``).
TERMINAL_STATES = ("done", "failed", "cancelled", "dead_letter")


class ServiceError(ReproError):
    """An API call failed; carries the HTTP status, code and message.

    ``code`` is the machine-readable value from the service's JSON error
    envelope ``{"error": {"code": ..., "message": ...}}`` (or
    ``"unknown"`` when the response was not an envelope).
    """

    def __init__(self, status: int, message: str, code: str = "unknown") -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code


def _envelope(payload) -> tuple:
    """``(code, message)`` from an error response of any shape."""
    if isinstance(payload, dict):
        error = payload.get("error", payload)
        if isinstance(error, dict):
            return (
                str(error.get("code", "unknown")),
                str(error.get("message", error)),
            )
        return "unknown", str(error)
    return "unknown", str(payload)


class ServiceClient:
    """Blocking JSON client for one service endpoint."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> tuple:
        """Returns ``(status, raw_bytes)``; raises only on transport errors."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None,
              ok: tuple = (200,),
              timeout: Optional[float] = None) -> Dict[str, object]:
        status, raw = self._request(method, path, body, timeout=timeout)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = raw.decode("utf-8", "replace")
        if status not in ok:
            code, message = _envelope(payload)
            raise ServiceError(status, message, code)
        return payload

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(
        self,
        experiment_id: str,
        profile: Union[str, Dict[str, object], None] = None,
        seed: int = 0,
        priority: int = 0,
        timeout: Optional[float] = None,
        entry_point: Optional[str] = None,
        wait: Union[bool, float] = False,
    ) -> Dict[str, object]:
        """``POST /jobs``; returns the job record (maybe already done)."""
        body: Dict[str, object] = {
            "experiment_id": experiment_id,
            "seed": seed,
            "priority": priority,
            "wait": wait,
        }
        if profile is not None:
            body["profile"] = profile
        if timeout is not None:
            body["timeout"] = timeout
        if entry_point is not None:
            body["entry_point"] = entry_point
        http_timeout = self.timeout
        if wait:
            http_timeout += 3600.0 if wait is True else float(wait)
        return self._json(
            "POST", "/jobs", body, ok=(200, 202), timeout=http_timeout
        )

    def submit_scenario(
        self,
        scenario: Union[Dict[str, object], object],
        profile: Union[str, Dict[str, object], None] = None,
        seed: int = 0,
        priority: int = 0,
        timeout: Optional[float] = None,
        wait: Union[bool, float] = False,
    ) -> Dict[str, object]:
        """``POST /jobs`` with an inline declarative scenario spec.

        ``scenario`` is a spec dict or anything with ``to_dict()`` (a
        :class:`repro.scenario.ScenarioSpec`).
        """
        spec_dict = (
            scenario if isinstance(scenario, dict) else scenario.to_dict()
        )
        body: Dict[str, object] = {
            "scenario": spec_dict,
            "seed": seed,
            "priority": priority,
            "wait": wait,
        }
        if profile is not None:
            body["profile"] = profile
        if timeout is not None:
            body["timeout"] = timeout
        http_timeout = self.timeout
        if wait:
            http_timeout += 3600.0 if wait is True else float(wait)
        return self._json(
            "POST", "/jobs", body, ok=(200, 202), timeout=http_timeout
        )

    def job(self, job_id: str) -> Dict[str, object]:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._json("POST", f"/jobs/{job_id}/cancel", {}, ok=(200, 409))

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_seconds: float = 0.1,
    ) -> Dict[str, object]:
        """Poll ``GET /jobs/{id}`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    408, f"job {job_id} still {record['state']} after "
                    f"{timeout:.1f}s"
                )
            time.sleep(poll_seconds)

    def result_bytes(self, key: str) -> bytes:
        status, raw = self._request("GET", f"/results/{key}")
        if status != 200:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = raw.decode("utf-8", "replace")
            code, message = _envelope(payload)
            raise ServiceError(status, message, code)
        return raw

    def result(self, key: str) -> ExperimentResult:
        return ExperimentResult.from_json(
            self.result_bytes(key).decode("utf-8")
        )

    def experiments(self) -> List[str]:
        return list(self._json("GET", "/experiments")["experiments"])

    # ------------------------------------------------------------------
    # Fleet lease protocol (used by repro.service.worker)
    # ------------------------------------------------------------------
    def fleet(self) -> Dict[str, object]:
        """``GET /fleet``: workers, live leases, dead letters, counters."""
        return self._json("GET", "/fleet")

    def fleet_claim(self, worker_id: str) -> Dict[str, object]:
        """Claim a leased job; the response's ``lease`` is ``None`` when
        the queue is empty or the service is draining."""
        return self._json(
            "POST", "/fleet/claim", {"worker_id": worker_id}
        )

    def fleet_heartbeat(
        self, lease_id: str, worker_id: str
    ) -> Dict[str, object]:
        """Renew a lease (``ServiceError`` with status 409 when dead)."""
        return self._json(
            "POST",
            f"/fleet/leases/{lease_id}/heartbeat",
            {"worker_id": worker_id},
        )

    def fleet_complete(
        self,
        lease_id: str,
        worker_id: str,
        result: Dict[str, object],
        wall_seconds: float = 0.0,
    ) -> Dict[str, object]:
        """Upload the result blob for a held lease."""
        return self._json(
            "POST",
            f"/fleet/leases/{lease_id}/complete",
            {
                "worker_id": worker_id,
                "result": result,
                "wall_seconds": wall_seconds,
            },
        )

    def fleet_fail(
        self, lease_id: str, worker_id: str, error: str
    ) -> Dict[str, object]:
        """Report a deterministic failure for a held lease."""
        return self._json(
            "POST",
            f"/fleet/leases/{lease_id}/fail",
            {"worker_id": worker_id, "error": error},
        )

    def healthz(self) -> Dict[str, object]:
        """``GET /healthz``; a draining service answers 503 with the
        same body shape (``status: "draining"``), which is still a
        successful health read — not an error."""
        return self._json("GET", "/healthz", ok=(200, 503))

    # ------------------------------------------------------------------
    # Live event streaming
    # ------------------------------------------------------------------
    def stream_events(
        self,
        job_id: Optional[str] = None,
        last_event_id: Optional[int] = None,
        max_events: Optional[int] = None,
        reconnect: bool = True,
        max_reconnects: int = 5,
        timeout: Optional[float] = None,
        types: Optional[Sequence[str]] = None,
    ) -> Iterator[Dict[str, object]]:
        """Yield decoded frames from the NDJSON event stream.

        ``job_id=None`` follows the server-wide ``GET /events``;
        otherwise ``GET /jobs/{id}/events``.  ``types`` (e.g. ``("job",
        "alarm")``) asks the server to queue only frames of those types,
        so rare frames survive a busy hub.  Each yielded dict carries
        ``id`` and ``type`` plus the frame payload.  On a broken
        connection the generator transparently reconnects (up to
        ``max_reconnects`` times) with ``Last-Event-ID`` set to the
        last frame it delivered, so the server replays what its ring
        still holds past that cursor — a clean end-of-stream (the
        server honoured ``max_events``, or closed the finite response)
        ends the iteration instead.
        """
        path = "/events" if job_id is None else f"/jobs/{job_id}/events"
        cursor = last_event_id
        delivered = 0
        attempts = 0
        while max_events is None or delivered < max_events:
            query: Dict[str, str] = {"format": "ndjson"}
            if types is not None:
                query["type"] = ",".join(types)
            if max_events is not None:
                query["max_events"] = str(max_events - delivered)
            url = (
                self.base_url + path + "?"
                + urllib.parse.urlencode(query)
            )
            headers = {"Accept": "application/x-ndjson"}
            if cursor is not None:
                headers["Last-Event-ID"] = str(cursor)
            request = urllib.request.Request(url, headers=headers)
            try:
                with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout
                ) as response:
                    if response.status != 200:
                        raise ServiceError(
                            response.status, "event stream refused"
                        )
                    for raw in response:
                        frame = parse_frame_line(raw.decode("utf-8"))
                        if frame is None:
                            continue
                        cursor = frame.get("id", cursor)
                        attempts = 0  # progress resets the retry budget
                        delivered += 1
                        yield frame
                        if max_events is not None and delivered >= max_events:
                            return
                # Clean EOF: the server ended the chunked body.
                return
            except (
                urllib.error.URLError,
                ConnectionError,
                TimeoutError,
                http.client.HTTPException,
            ) as exc:
                if not reconnect or attempts >= max_reconnects:
                    raise ServiceError(
                        503, f"event stream lost: {exc}"
                    ) from exc
                attempts += 1
                time.sleep(min(0.1 * attempts, 1.0))

    def metrics_text(self) -> str:
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")
