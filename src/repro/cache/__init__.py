"""Cache substrate: lines, sets, set-associative caches, and the hierarchy.

This package implements the write-back cache semantics the paper attacks.
The single load-bearing behaviour is in :meth:`CacheSet.fill` /
:meth:`CacheHierarchy.access`: filling over a **dirty** victim costs a
write-back penalty on top of the next-level hit latency, while a clean
victim is replaced for free.  Everything else — write policies, allocation
policies, statistics, multi-level walks — exists so the attack, baseline
channels, defenses, and benign workloads all run against one faithful model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "line": ("CacheLine", "EvictedLine"),
        "latency": ("LatencyModel",),
        "cache_set": ("CacheSet",),
        "cache": ("AllocationPolicy", "Cache", "WritePolicy"),
        "hierarchy": (
            "AccessTrace",
            "CacheHierarchy",
            "HierarchyFactory",
            "MEMORY_LEVEL",
        ),
        "stats": ("CacheStats", "LevelCounters"),
        "configs": (
            "HierarchyParams",
            "LevelParams",
            "XeonE5_2650Config",
            "make_xeon_hierarchy",
            "make_tiny_hierarchy",
        ),
    },
)
