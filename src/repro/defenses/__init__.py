"""Secure-cache defenses evaluated in Section 8 of the paper.

Each defense is a drop-in :class:`~repro.cache.Cache` variant (or a
configuration recipe) plus a factory that builds a defended Xeon-like
hierarchy.  :mod:`repro.defenses.evaluation` runs the WB channel against
each one and scores mitigation strength and benign-workload overhead.

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
