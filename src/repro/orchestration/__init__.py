"""Fleet-wide detection fusion and closed-loop defense orchestration.

The interactive form of the paper's §7 stealth result: instead of
scoring a finished run, detector scores stream *live* into a
:class:`~repro.orchestration.aggregator.FleetAggregator` (k-of-n fused
decision across per-job / per-core sources), and a
:class:`~repro.orchestration.responder.DefenseResponder` flips the
victim hierarchy to a :mod:`repro.defenses` defense the moment the fused
alarm fires — at a deterministic event boundary, so the whole
attacker-vs-defender exchange is bit-replayable.

Process-wide alarm/flip counters for the service's ``/metrics`` and
``/healthz`` live in :mod:`repro.orchestration.counters`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aggregator": ("AlarmEvent", "FleetAggregator"),
        "counters": (
            "live_snapshots",
            "orchestration_counters",
            "record_alarm",
            "record_flip",
            "register_live",
            "reset_counters",
        ),
        "responder": ("DefenseResponder",),
    },
)
