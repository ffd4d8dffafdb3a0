"""Streaming cache-event telemetry: bus, subscribers, online detectors.

The observability subsystem for the reproduction.  A zero-cost-when-
disabled event bus (:mod:`repro.telemetry.bus`) receives structured
cache events (:mod:`repro.telemetry.events`) from the shared hierarchy
walk, fans them out to composable subscribers
(:mod:`repro.telemetry.subscribers`), and feeds the online
covert-channel detectors (:mod:`repro.telemetry.detectors`) that the
``online_detection`` experiment uses to test the paper's Section 7
stealth claim dynamically.  Process-global session plumbing lives in
:mod:`repro.telemetry.session`.

Import discipline: this package never imports from :mod:`repro.cache`
(the hierarchy imports the session hook from here, so an import back
would be a cycle).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bus": (
            "OVERFLOW_POLICIES",
            "BufferedSubscriber",
            "Subscriber",
            "TelemetryBus",
        ),
        "net": (
            "StreamClient",
            "StreamFrame",
            "StreamPublisher",
            "active_publisher",
            "bind_publisher",
            "ndjson_line",
            "publish_ambient",
            "sse_block",
        ),
        "detectors": (
            "Baseline",
            "MissRateMonitor",
            "WritebackBurstDetector",
            "autocorrelation",
            "detection_rate",
            "suggest_threshold",
            "threshold_sweep",
        ),
        "events": ("AGGREGATE_OWNER", "CacheEvent", "EventKind"),
        "session": (
            "TelemetryConfig",
            "TelemetrySession",
            "active_session",
            "configure",
            "default_config",
            "session_bus",
            "telemetry_session",
        ),
        "subscribers": (
            "BusProfiler",
            "TraceRecorder",
            "WindowCounts",
            "WindowedCounters",
        ),
    },
)
