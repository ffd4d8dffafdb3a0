"""Seeded, deterministic fault injection (``repro.faults``).

Perturbs a running channel and the simulator around it — descheduling
windows, co-runner bursts, threshold drift, dropped/duplicated probe
windows — and the runner itself (worker crashes and hangs).  Everything
is a pure function of a seed: the ``fault_tolerance`` experiment and the
parity suite rely on the same seed reproducing the same faults on both
simulation engines.

See DESIGN.md ("Fault model and the self-healing protocol") for the
model and :mod:`repro.channels.wb.robust` for the protocol stack that
survives it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "chaos": (
            "CHAOS_CRASH_EXIT",
            "CHAOS_MARKER_ENV",
            "CHAOS_TASK_ENV",
            "crash_once_then_run",
            "hang_once_then_run",
        ),
        "fleet": (
            "DEFAULT_FLEET_FAULT_SPEC",
            "FLEET_FAULT_CLASSES",
            "FleetFaultDecision",
            "fleet_fault_decision",
        ),
        "injector": (
            "CORUNNER_TID",
            "CoRunnerProgram",
            "apply_measurement_faults",
            "desched_plan",
            "emit_fault_events",
        ),
        "schedule": ("FaultSchedule", "build_fault_schedule"),
        "spec": ("DEFAULT_FAULT_SPEC", "FaultSpec"),
    },
)
