"""Fault model specification for deterministic chaos runs.

The paper's capacity numbers (Section 6) assume a cooperative SMT
pairing; real deployments of this class of channel fight preemption,
interfering co-runners and thermal/frequency drift of the calibrated
latency bands.  :class:`FaultSpec` names those disturbance classes with
explicit per-symbol rates and magnitudes so the whole fault regime is a
single value that can be scaled (:meth:`FaultSpec.scaled`), stored in a
manifest, and reproduced bit-for-bit from a seed.

Fault classes
-------------

``desched``
    The OS deschedules the sender or the receiver for a fraction of a
    period or several whole periods.  Because both parties chain their
    period boundaries off the *actual* time they wake up, a long
    descheduling window permanently shifts that party's symbol grid —
    the receiver skips sender symbols (deletions) or re-samples one
    symbol twice (insertions).  This is the symbol-slip mechanism the
    framing layer must resynchronise around.
``drop`` / ``duplicate``
    A receiver probe window that never produces a measurement (timer
    coalescing, an interrupt eating the window) or that fires twice.
    Applied to the measured sample stream, so the decoded bit stream
    loses or repeats bits.
``drift``
    Slow monotone drift of the measured latencies away from the
    calibrated thresholds (DVFS, thermal throttling).  The raw decoder's
    0/1 threshold sits ~5.5 cycles above the clean-traversal median
    (half the L1 write-back penalty), so a drift beyond that flips every
    encoded 0 into a 1 unless the receiver recalibrates online.
``corunner``
    Bursts of set-conflicting traffic from a third hardware thread
    (loads plus the occasional store), evicting replacement-set lines
    and planting spurious dirty states.
``worker_crash`` / ``worker_hang``
    Runner-level chaos (a worker process dying or wedging), consumed by
    :mod:`repro.faults.chaos` and by the service fleet
    (:mod:`repro.faults.fleet`) rather than the channel simulator.
``heartbeat_stale`` / ``upload_drop`` / ``store_slow``
    Service-level chaos for the worker fleet's lease protocol
    (:mod:`repro.service.fleet`): a worker whose heartbeats stop while
    it still holds a lease, a computed result whose upload never
    arrives, and a store interaction that stalls for
    ``store_slow_seconds`` before completing.  Materialised per
    ``(job key, lease attempt)`` by
    :func:`repro.faults.fleet.fleet_fault_decision`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.records import OMIT_AT_DEFAULT, Number, Record

#: Rates are probabilities and must stay in [0, 1] after scaling.
_RATE_FIELDS = (
    "desched_rate",
    "drop_rate",
    "duplicate_rate",
    "corunner_rate",
    "worker_crash_rate",
    "worker_hang_rate",
    "heartbeat_stale_rate",
    "upload_drop_rate",
    "store_slow_rate",
)


@dataclass(frozen=True)
class FaultSpec(Record):
    """Per-class fault rates and magnitudes (all deterministic knobs).

    The defaults describe intensity 1.0 of the ``fault_tolerance``
    sweep: every class present but none overwhelming, so scaling up
    degrades the raw channel smoothly instead of cliff-dropping.

    Every rate and magnitude but the ``corunner_accesses`` count is a
    :data:`~repro.common.records.Number`, kept as given (an int stays an
    int): scenario keys hash it.  The fleet fields are left out of
    ``to_dict`` at their defaults ("off"), so every canonical form hashed
    before they existed — scenario ``KEYS.json`` pins, golden results,
    cache keys — stays byte-identical.
    """

    #: Probability per symbol per party of a descheduling window.
    desched_rate: Number = 0.01
    #: Descheduling window length, uniform in periods.
    desched_min_periods: Number = 0.6
    desched_max_periods: Number = 2.4
    #: Probability per probe window of the measurement being lost.
    drop_rate: Number = 0.01
    #: Probability per probe window of the measurement firing twice.
    duplicate_rate: Number = 0.01
    #: Monotone latency drift added per symbol slot (cycles).
    drift_cycles_per_symbol: Number = 0.12
    #: Drift saturates here (the machine settles at a new operating point).
    drift_limit_cycles: Number = 15.0
    #: Probability per symbol of a co-runner burst landing in its window.
    corunner_rate: Number = 0.02
    #: Accesses per co-runner burst (every fourth one a store).
    corunner_accesses: int = 16
    #: Runner chaos: probability a worker crashes / hangs on first attempt.
    worker_crash_rate: Number = 0.0
    worker_hang_rate: Number = 0.0
    #: Fleet chaos: probability per lease attempt that the worker keeps
    #: computing but its heartbeats stop (partition; lease expires).
    heartbeat_stale_rate: Number = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    #: Fleet chaos: probability per lease attempt that the computed
    #: result's upload never arrives.
    upload_drop_rate: Number = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    #: Fleet chaos: probability per lease attempt that store interaction
    #: stalls for ``store_slow_seconds`` before completing normally.
    store_slow_rate: Number = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    #: Magnitude of a ``store_slow`` stall, in wall-clock seconds.
    store_slow_seconds: Number = field(default=0.5, metadata=OMIT_AT_DEFAULT)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {value}"
                )
        if self.desched_min_periods < 0 or (
            self.desched_max_periods < self.desched_min_periods
        ):
            raise ConfigurationError(
                "desched window must satisfy 0 <= min <= max, got "
                f"[{self.desched_min_periods}, {self.desched_max_periods}]"
            )
        if self.drift_cycles_per_symbol < 0 or self.drift_limit_cycles < 0:
            raise ConfigurationError("drift parameters must be non-negative")
        if self.corunner_accesses <= 0:
            raise ConfigurationError(
                f"corunner_accesses must be positive, got {self.corunner_accesses}"
            )
        if self.store_slow_seconds < 0:
            raise ConfigurationError(
                f"store_slow_seconds must be non-negative, got "
                f"{self.store_slow_seconds}"
            )

    def scaled(self, intensity: float) -> "FaultSpec":
        """This spec at a different fault intensity.

        Rates and the drift slope scale linearly (rates clamp at 1.0);
        event *magnitudes* — window lengths, burst sizes, the drift
        ceiling — stay fixed, so intensity means "faults happen more
        often / drift accumulates faster", not "each fault is bigger".
        Intensity 0 is the fault-free baseline.
        """
        if intensity < 0:
            raise ConfigurationError(
                f"fault intensity must be non-negative, got {intensity}"
            )
        changes = {
            name: min(1.0, getattr(self, name) * intensity)
            for name in _RATE_FIELDS
        }
        changes["drift_cycles_per_symbol"] = (
            self.drift_cycles_per_symbol * intensity
        )
        return replace(self, **changes)


#: The reference fault regime used by the ``fault_tolerance`` experiment.
DEFAULT_FAULT_SPEC = FaultSpec()
