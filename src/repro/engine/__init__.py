"""Fast struct-of-arrays simulation engine.

The reference cache core (:mod:`repro.cache`) is the semantic oracle:
object-per-line sets, defensive validation, written to be read next to the
paper.  This package is the performance twin — same behaviour, bit for
bit (``tests/test_engine_parity.py``), through the same
:meth:`~repro.cache.hierarchy.CacheHierarchy.access` walk:

* :class:`~repro.engine.fast_set.FastSet` — parallel tag/owner arrays,
  valid/dirty/locked bitmask ints, a ``tag -> way`` dict index, and
  incremental counters;
* :class:`~repro.engine.fast_cache.FastCache` — a drop-in
  :class:`~repro.cache.cache.Cache` on FastSet storage with cached
  address-field arithmetic;
* integer-encoded replacement state in
  :mod:`repro.replacement.fast_state`, built from ``(ways, rng)``; no
  reference policy object exists on this engine;
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
    },
)
