"""Fast struct-of-arrays simulation engine.

The reference cache core (:mod:`repro.cache`) is the semantic oracle:
object-per-line sets, defensive validation, written to be read next to the
paper.  This package is the performance twin — same behaviour, bit for
bit (``tests/test_engine_parity.py``), several times the throughput:

* :class:`~repro.engine.fast_set.FastSet` — parallel tag/owner arrays,
  valid/dirty/locked bitmask ints, a ``tag -> way`` dict index, and
  incremental counters;
* :class:`~repro.engine.fast_cache.FastCache` — a drop-in
  :class:`~repro.cache.cache.Cache` on FastSet storage with cached
  address-field arithmetic;
* integer-encoded replacement state in
  :mod:`repro.replacement.fast_state`;
* :func:`~repro.engine.trace.run_trace` — batched trace replay;
* :mod:`~repro.engine.selection` — the ``--engine {reference,fast}``
  switch consulted by the hierarchy builders.
"""

from repro.engine.fast_cache import FastCache
from repro.engine.fast_set import FastSet
from repro.engine.selection import (
    DEFAULT_ENGINE,
    FAST,
    REFERENCE,
    available_engines,
    cache_class,
    current_engine,
    engine_context,
    resolve_engine,
    set_engine,
)
from repro.engine.trace import TraceResult, event_stream, run_trace, run_trace_summary
from repro.engine.workloads import fig6_workload, random_workload

__all__ = [
    "DEFAULT_ENGINE",
    "FAST",
    "REFERENCE",
    "FastCache",
    "FastSet",
    "TraceResult",
    "available_engines",
    "cache_class",
    "current_engine",
    "engine_context",
    "event_stream",
    "fig6_workload",
    "random_workload",
    "resolve_engine",
    "run_trace",
    "run_trace_summary",
    "set_engine",
]
