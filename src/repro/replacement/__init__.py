"""Cache replacement policies.

Each policy manages the metadata of a *single cache set*; a cache creates one
policy instance per set through a factory.  The paper's Table 2 and Table 5
are pure properties of these policies (how reliably does a replacement set of
size N evict a previously-touched line?), so they are implemented carefully
and tested independently of the cache that hosts them.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("ReplacementPolicy", "PolicyFactory"),
        "true_lru": ("TrueLRU",),
        "fifo": ("FIFO",),
        "tree_plru": ("TreePLRU",),
        "noisy_plru": ("NoisyTreePLRU",),
        "dirty_protect": ("DirtyProtectingLRU", "DirtyProtectingPLRU"),
        "bit_plru": ("BitPLRU",),
        "nru": ("NRU",),
        "srrip": ("SRRIP",),
        "random_policy": ("LFSRPseudoRandom", "UniformRandom"),
        "registry": ("available_policies", "make_policy_factory"),
    },
)
