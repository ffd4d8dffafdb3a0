"""Service observability: the result store *is* a cache, so meter it as one.

Rather than inventing a parallel metrics stack, the service maps its
lifecycle onto the existing cache-event vocabulary and feeds the same
:class:`~repro.telemetry.subscribers.WindowedCounters` /
:class:`~repro.telemetry.subscribers.BusProfiler` subscribers every
simulated hierarchy feeds — one :class:`~repro.telemetry.bus.TelemetryBus`
whose logical clock ticks once per job submission:

========================  =============================================
Event kind                Service meaning
========================  =============================================
``HIT``                   submission served without a new computation
                          (store hit, or coalesced onto one in flight;
                          ``dirty=True`` marks the coalesced case)
``MISS``                  submission enqueued a new computation
``WRITEBACK``             a computation finished and its result was
                          written back into the store
``EVICT``                 the store's LRU cap pushed a blob out
``FLUSH``                 a queued computation was cancelled
``FAULT``                 a computation failed (error / timeout / crash)
========================  =============================================

``WindowedCounters`` then gives hit/miss rates per submission window for
free (the same maths the detectors use), and ``BusProfiler`` gives
events/sec — both rendered into Prometheus text by
:func:`render_prometheus` for ``GET /metrics``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import CacheEvent, EventKind
from repro.telemetry.subscribers import BusProfiler, WindowedCounters

#: The pseudo-"cache level" service events carry (1-based like L1D).
STORE_LEVEL = 1

#: How many hex chars of the content address ride in ``event.address``.
_ADDRESS_HEX_CHARS = 12


class ServiceTelemetry:
    """The service's telemetry bus plus its two standing subscribers."""

    def __init__(self, window: int = 64) -> None:
        self.bus = TelemetryBus(enabled=True)
        self.counters = WindowedCounters(window=window)
        self.profiler = BusProfiler()
        self.bus.subscribe(self.counters)
        self.bus.subscribe(self.profiler)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: EventKind,
        key: str,
        time_: int,
        write: bool = False,
        dirty: bool = False,
    ) -> None:
        # The content address's leading hex rides in the address field,
        # so a trace of service events still says *which* result moved.
        address = int(key[:_ADDRESS_HEX_CHARS], 16) if key else 0
        self.bus.emit(
            CacheEvent(time_, kind, STORE_LEVEL, 0, 0, address, write, dirty)
        )

    def submission(self) -> int:
        """Tick the logical clock for one job submission; returns it."""
        return self.bus.tick()

    def store_hit(self, key: str, time_: int) -> None:
        self._emit(EventKind.HIT, key, time_)

    def coalesced(self, key: str, time_: int) -> None:
        self._emit(EventKind.HIT, key, time_, dirty=True)

    def computation_enqueued(self, key: str, time_: int) -> None:
        self._emit(EventKind.MISS, key, time_)

    def result_stored(self, key: str, time_: int) -> None:
        self._emit(EventKind.WRITEBACK, key, time_, write=True, dirty=True)

    def store_evicted(self, key: str, time_: int) -> None:
        self._emit(EventKind.EVICT, key, time_)

    def cancelled(self, key: str, time_: int) -> None:
        self._emit(EventKind.FLUSH, key, time_)

    def computation_failed(self, key: str, time_: int) -> None:
        self._emit(EventKind.FAULT, key, time_)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON view (healthz): totals plus profiler throughput."""
        self.counters.finish()
        totals = self.counters.totals(STORE_LEVEL)
        return {
            "submissions": totals.accesses,
            "served_without_computation": totals.hits,
            "computations_enqueued": totals.misses,
            "results_stored": totals.writebacks,
            "store_evictions": totals.evictions - totals.writebacks,
            "cancellations": totals.flushes,
            "failures": totals.faults,
            "events_per_second": round(self.profiler.events_per_second, 3),
        }


def _prometheus_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(
    scheduler_counters: Dict[str, object],
    store_counters: Dict[str, int],
    telemetry: Optional[ServiceTelemetry] = None,
    uptime_seconds: Optional[float] = None,
    stream: Optional[Dict[str, object]] = None,
    orchestration: Optional[Dict[str, int]] = None,
) -> str:
    """Render all service metrics in Prometheus text exposition format."""
    lines: List[str] = []

    def metric(
        name: str,
        kind: str,
        help_text: str,
        samples: Iterable[Tuple[Dict[str, str], float]],
    ) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            label_text = ""
            if labels:
                rendered = ",".join(
                    f'{key}="{_prometheus_escape(str(val))}"'
                    for key, val in sorted(labels.items())
                )
                label_text = "{" + rendered + "}"
            if isinstance(value, float) and not value.is_integer():
                value_text = repr(value)
            else:
                value_text = str(int(value))
            lines.append(f"{name}{label_text} {value_text}")

    gauge_names = {
        "queued",
        "running",
        "inflight_keys",
        "workers",
        "delayed",
        "retry_after_seconds",
    }
    for name, value in sorted(scheduler_counters.items()):
        if not isinstance(value, (int, float)):
            continue
        if name in gauge_names:
            metric(
                f"repro_service_{name}",
                "gauge",
                f"Scheduler gauge: {name}.",
                [({}, float(value))],
            )
        else:
            metric(
                f"repro_service_jobs_{name}_total",
                "counter",
                f"Scheduler counter: {name} jobs.",
                [({}, float(value))],
            )

    # Fleet lease protocol: per-worker liveness, live lease gauge, and
    # the failure-handling counters (expirations, re-dispatches,
    # dead-letter quarantines, rejected stale uploads, shed load).
    fleet = scheduler_counters.get("fleet")
    if isinstance(fleet, dict):
        fleet_counters = fleet.get("counters", {})
        fleet_workers = fleet.get("workers", [])
        metric(
            "repro_service_fleet_workers_live",
            "gauge",
            "Fleet workers heard from within the worker TTL.",
            [({}, float(fleet.get("workers_live", 0)))],
        )
        metric(
            "repro_service_fleet_worker_up",
            "gauge",
            "Per-worker liveness (1 = heartbeat/claim within TTL).",
            [
                ({"worker_id": worker["worker_id"]}, 1.0 if worker["live"] else 0.0)
                for worker in fleet_workers
            ]
            or [({}, 0.0)],
        )
        metric(
            "repro_service_fleet_leases_active",
            "gauge",
            "Leases currently held by fleet workers.",
            [({}, float(fleet.get("leases_active", 0)))],
        )
        metric(
            "repro_service_fleet_draining",
            "gauge",
            "1 while the service drains for shutdown (shedding load).",
            [({}, 1.0 if fleet.get("draining") else 0.0)],
        )
        for name in (
            "leases_granted",
            "leases_renewed",
            "leases_expired",
            "redispatches",
            "dead_letter",
            "uploads_rejected",
            "fleet_completed",
            "fleet_failed",
            "shed",
        ):
            metric(
                f"repro_service_fleet_{name}_total",
                "counter",
                f"Fleet lease-protocol counter: {name}.",
                [({}, float(fleet_counters.get(name, 0)))],
            )

    for name in ("hits", "misses", "puts", "evictions", "corrupt_discarded"):
        metric(
            f"repro_service_store_{name}_total",
            "counter",
            f"Result store counter: {name}.",
            [({}, float(store_counters.get(name, 0)))],
        )
    for name in ("entries", "bytes"):
        metric(
            f"repro_service_store_{name}",
            "gauge",
            f"Result store gauge: {name}.",
            [({}, float(store_counters.get(name, 0)))],
        )
    lookups = store_counters.get("hits", 0) + store_counters.get("misses", 0)
    hit_rate = store_counters.get("hits", 0) / lookups if lookups else 0.0
    metric(
        "repro_service_store_hit_rate",
        "gauge",
        "Store hits / lookups since start.",
        [({}, round(hit_rate, 6))],
    )

    if telemetry is not None:
        telemetry.counters.finish()
        totals = telemetry.counters.totals(STORE_LEVEL)
        metric(
            "repro_service_bus_events_total",
            "counter",
            "Cache-vocabulary service events on the telemetry bus.",
            [
                ({"kind": "hit"}, float(totals.hits)),
                ({"kind": "miss"}, float(totals.misses)),
                ({"kind": "writeback"}, float(totals.writebacks)),
                ({"kind": "evict"}, float(totals.evictions - totals.writebacks)),
                ({"kind": "flush"}, float(totals.flushes)),
                ({"kind": "fault"}, float(totals.faults)),
            ],
        )
        metric(
            "repro_service_bus_windows",
            "gauge",
            "Completed submission windows (WindowedCounters).",
            [({}, float(len(telemetry.counters.windows)))],
        )
        metric(
            "repro_service_bus_events_per_second",
            "gauge",
            "Observed bus throughput (BusProfiler).",
            [({}, round(telemetry.profiler.events_per_second, 3))],
        )

    # Live event stream (the hub publisher) and closed-loop orchestration.
    if stream is not None:
        metric(
            "repro_stream_clients",
            "gauge",
            "Stream clients currently attached to the hub publisher.",
            [({}, float(stream.get("clients", 0)))],
        )
        metric(
            "repro_stream_dropped_total",
            "counter",
            "Frames dropped across all stream clients (bounded queues).",
            [({}, float(stream.get("dropped_total", 0)))],
        )
        metric(
            "repro_stream_last_event_id",
            "gauge",
            "Highest event id the hub publisher has assigned.",
            [({}, float(stream.get("last_event_id", 0)))],
        )
    if orchestration is not None:
        metric(
            "repro_alarms_total",
            "counter",
            "Fused k-of-n alarms fired by fleet aggregators.",
            [({}, float(orchestration.get("alarms_total", 0)))],
        )
        metric(
            "repro_defense_flips_total",
            "counter",
            "Defense flips applied by closed-loop responders.",
            [({}, float(orchestration.get("defense_flips_total", 0)))],
        )

    if uptime_seconds is not None:
        metric(
            "repro_service_uptime_seconds",
            "gauge",
            "Seconds since the service started.",
            [({}, round(uptime_seconds, 3))],
        )
    return "\n".join(lines) + "\n"


def now() -> float:
    """Monotonic-ish wall clock for uptime (isolated for tests)."""
    return time.time()
