"""Memory substrate: addresses, paging, per-process address spaces.

The paper's threat model has the sender and receiver as *separate Linux
processes* with no shared memory, co-resident on one SMT core.  We model this
with per-process virtual address spaces backed by a shared physical frame
allocator: distinct processes get distinct frames, hence distinct cache tags,
while the VIPT L1 lets both sides aim at the same *set index* purely from
virtual addresses — exactly the property the attack relies on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "address": ("AddressLayout",),
        "address_space": ("AddressSpace", "FrameAllocator", "PAGE_SIZE"),
        "pointer_chase": ("PointerChaseList",),
        "sets": ("build_replacement_set", "build_set_conflicting_lines"),
    },
)
