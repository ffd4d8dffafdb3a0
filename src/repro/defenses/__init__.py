"""Secure-cache defenses evaluated in Section 8 of the paper.

Each defense is a drop-in :class:`~repro.cache.Cache` variant (or a
configuration recipe) plus a factory that builds a defended Xeon-like
hierarchy.  :mod:`repro.defenses.evaluation` runs the WB channel against
each one and scores mitigation strength and benign-workload overhead.

Every factory builds through the one Xeon construction
(:class:`~repro.cache.configs.HierarchyParams`), so the L1D is the only
difference: L2 and LLC run on the selected engine like every other
hierarchy's.  The four defense L1s (PLcache, partitioned, random fill,
randomized mapping) subclass the reference ``Cache`` and run on it under
either engine, because they override the ``lookup``/``fill``/
``allowed_ways``/``set_index`` hooks that
:class:`~repro.engine.fast_cache.FastCache` inlines; randomized mapping's
keyed index cannot ride its shift-and-mask index at all.  The
write-through L1 is a policy of the plain Xeon L1D, so it runs on the
selected engine too.

Paper's verdicts, which the evaluation reproduces:

=====================  =============================================
Defense                Expected outcome vs the WB channel
=====================  =============================================
PLcache (locking)      mitigates (locked dirty lines unreplaceable)
DAWG/Nomo partitions   mitigates (eviction isolation)
Random-fill cache      does **not** mitigate
Randomized mapping     mitigates naive attacker; profiling re-enables
Write-through L1       removes the channel entirely (no dirty state)
=====================  =============================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "plcache": ("PLCache", "make_plcache_hierarchy"),
        "partitioned": ("WayPartitionedCache", "make_partitioned_hierarchy"),
        "random_fill": ("RandomFillCache", "make_random_fill_hierarchy"),
        "randomized_mapping": (
            "RandomizedMappingCache",
            "make_randomized_mapping_hierarchy",
        ),
        "write_through": ("make_write_through_hierarchy",),
        "evaluation": ("DefenseReport", "evaluate_defense", "evaluate_all"),
    },
)
