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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fast_cache": ("FastCache",),
        "fast_set": ("FastSet",),
        "selection": (
            "DEFAULT_ENGINE",
            "FAST",
            "REFERENCE",
            "available_engines",
            "cache_class",
            "current_engine",
            "engine_context",
            "resolve_engine",
            "set_engine",
        ),
        "trace": ("TraceResult", "event_stream", "run_trace", "run_trace_summary"),
        "workloads": ("fig6_workload", "random_workload"),
    },
)
