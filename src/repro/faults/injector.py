"""Applying a :class:`FaultSchedule` to a running channel.

Three injection surfaces:

* **Program-level** — descheduling plans handed to the WB sender and
  receiver programs (they yield a ``Delay`` at the scheduled symbol, and
  because both programs chain period boundaries off actual wake-up
  times, the delay permanently shifts that party's symbol grid — the
  symbol-slip mechanic), plus :class:`CoRunnerProgram`, a third hardware
  thread that fires bursts of set-conflicting traffic.
* **Measurement-level** — :func:`apply_measurement_faults` perturbs the
  receiver's ``(tsc, latency)`` sample stream after the run: drift
  offsets shift latencies away from the calibrated thresholds, dropped
  probe windows delete samples, duplicated windows repeat them.
* **Telemetry** — :func:`emit_fault_events` publishes one
  ``EventKind.FAULT`` event per injected fault on the hierarchy's bus so
  detectors and trace recorders see the disturbance alongside the cache
  traffic it caused.  Events are *emitted*, never ``mark()``-ed: marks
  reset windowed subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.ops import Load, SpinUntil, Store
from repro.cpu.thread import OpGenerator, Program
from repro.faults.schedule import FaultSchedule
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import CacheEvent, EventKind

#: ``CacheEvent.address`` payload for FAULT events (the event vocabulary
#: has one FAULT kind; the fault class rides in the address field).
FAULT_SENDER_DESCHED = 0
FAULT_RECEIVER_DESCHED = 1
FAULT_DROPPED_PROBE = 2
FAULT_DUPLICATED_PROBE = 3
FAULT_CORUNNER_BURST = 4

#: Stats/event owner id for the interfering co-runner thread.
CORUNNER_TID = 2


def desched_plan(schedule: FaultSchedule, party: str) -> Dict[int, int]:
    """``{symbol_index: delay_cycles}`` for one party's program."""
    if party == "sender":
        events = schedule.sender_desched
    elif party == "receiver":
        events = schedule.receiver_desched
    else:
        raise ConfigurationError(f"unknown desched party {party!r}")
    return dict(events)


@dataclass
class CoRunnerProgram(Program):
    """Bursty interfering traffic on the channel's target set.

    Each burst spins until its scheduled start and then issues
    ``accesses`` set-conflicting operations, every fourth one a store —
    loads evict replacement-set lines (false high latencies), stores
    plant spurious dirty states (false low-to-high transitions).
    """

    lines: Sequence[int]
    bursts: Sequence[Tuple[int, int]]

    def __post_init__(self) -> None:
        if not self.lines:
            raise ConfigurationError("co-runner needs at least one conflict line")

    def run(self) -> OpGenerator:
        # Warm the lines so bursts measure interference, not DRAM fills.
        for line in self.lines:
            yield Load(line)
        for start, accesses in sorted(self.bursts):
            yield SpinUntil(start)
            for k in range(accesses):
                address = self.lines[k % len(self.lines)]
                if k % 4 == 0:
                    yield Store(address)
                else:
                    yield Load(address)


def apply_measurement_faults(
    samples: Sequence[Tuple[int, int]], schedule: FaultSchedule
) -> List[Tuple[int, int]]:
    """Perturb the receiver's sample stream per the schedule.

    Order matters and is fixed: drift first (indexed by the *measured*
    slot), then drops (the slot never yields a sample), then
    duplications (the slot yields two).  The output stream is what the
    decoder sees; its length differs from the input by
    ``duplicates - drops``.
    """
    dropped = set(schedule.dropped_slots)
    duplicated = set(schedule.duplicated_slots)
    out: List[Tuple[int, int]] = []
    for slot, (tsc, latency) in enumerate(samples):
        if slot in dropped:
            continue
        drift = schedule.drift_offsets[slot] if slot < len(schedule.drift_offsets) else 0
        sample = (tsc, latency + drift)
        out.append(sample)
        if slot in duplicated:
            out.append(sample)
    return out


def emit_fault_events(
    bus: TelemetryBus, schedule: FaultSchedule, target_set: int
) -> int:
    """Publish the schedule's faults as FAULT events; returns the count.

    The event timestamp is the fault's nominal position on the protocol
    timeline (symbol window start for desched/probe faults, burst start
    for co-runner bursts); ``owner`` is the disturbed thread.
    """
    def at(symbol: int) -> int:
        return schedule.start_time + symbol * schedule.period

    events: List[CacheEvent] = []

    def add(time: int, owner: int, fault_class: int) -> None:
        events.append(
            CacheEvent(
                time=time,
                kind=int(EventKind.FAULT),
                level=0,
                set_index=target_set,
                owner=owner,
                address=fault_class,
                write=False,
                dirty=False,
            )
        )

    for symbol, _ in schedule.sender_desched:
        add(at(symbol), 0, FAULT_SENDER_DESCHED)
    for symbol, _ in schedule.receiver_desched:
        add(at(symbol), 1, FAULT_RECEIVER_DESCHED)
    for slot in schedule.dropped_slots:
        add(at(slot), 1, FAULT_DROPPED_PROBE)
    for slot in schedule.duplicated_slots:
        add(at(slot), 1, FAULT_DUPLICATED_PROBE)
    for start, _ in schedule.corunner_bursts:
        add(start, CORUNNER_TID, FAULT_CORUNNER_BURST)

    for event in sorted(events, key=lambda e: (e.time, e.address)):
        bus.emit(event)
    return len(events)
