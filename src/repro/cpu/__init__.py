"""CPU substrate: operations, hardware threads, SMT core, TSC, perf view.

The paper's sender and receiver are two processes pinned to the two
hyper-threads of one physical core (``sched_setaffinity``).  We model each
process as a Python generator yielding :mod:`operations <repro.cpu.ops>`;
the :class:`SMTCore` interleaves the two generators in global-time order
against the shared cache hierarchy, which is what makes measurement/encode
overlap — the paper's dominant error source — an emergent property rather
than an injected one.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ops": ("Delay", "Flush", "Load", "Op", "RdTSC", "SpinUntil", "Store"),
        "thread": ("HardwareThread", "Program"),
        "tsc": ("TimestampCounter", "TimestampCounterLike"),
        "noise": ("SchedulerNoise",),
        "smt": ("SMTCore",),
        "perf_counters": ("PerfReport", "loads_per_millisecond"),
    },
)
