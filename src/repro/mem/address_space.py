"""Per-process virtual address spaces over a shared physical memory.

The simulator needs just enough of an MMU to make the paper's threat model
real: the sender and receiver are distinct processes, so their cache lines
must carry distinct physical tags even when they collide on a VIPT set index.
We model 4 KB pages, identity page-offset translation, and a global frame
allocator handing out distinct frames per process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import ensure_rng

#: Page size in bytes.  4 KB matches x86 and, importantly, is exactly the
#: stride between L1 set-index conflicts for a 32 KB / 8-way / 64 B cache, so
#: VIPT and PIPT indexing agree for the L1 — the property that lets the
#: receiver build a replacement set from virtual addresses alone.
PAGE_SIZE: int = 4096

_OFFSET_MASK = PAGE_SIZE - 1


class FrameAllocator:
    """Hands out physical page frames to address spaces.

    Frames can be handed out sequentially (deterministic, useful in tests) or
    in a shuffled order (models the unpredictability of real frame
    allocation, which only matters for physically indexed levels).
    """

    def __init__(
        self,
        total_frames: int = 1 << 20,
        shuffle: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if total_frames <= 0:
            raise ConfigurationError(
                f"total_frames must be positive, got {total_frames}"
            )
        self.total_frames = total_frames
        self._next_frame = 0
        self._shuffle = shuffle
        self._rng = ensure_rng(rng)
        self._free: List[int] = []

    def allocate(self) -> int:
        """Return a frame number never handed out before (or since freed)."""
        if self._free:
            return self._free.pop()
        if self._next_frame >= self.total_frames:
            raise SimulationError("physical memory exhausted")
        if self._shuffle:
            # Reservoir-free shuffled allocation: pick a random frame among
            # the not-yet-used tail by swapping indices lazily.  For the scale
            # of this simulator a simple random skip suffices.
            span = self.total_frames - self._next_frame
            offset = self._rng.randrange(min(span, 4096))
            frame = self._next_frame + offset
            # Keep monotone progress; duplicates are avoided by advancing
            # past the chosen frame and recycling skipped ones as free.
            for skipped in range(self._next_frame, frame):
                self._free.append(skipped)
            self._next_frame = frame + 1
            return frame
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def release(self, frame: int) -> None:
        """Return ``frame`` to the allocator."""
        if not 0 <= frame < self.total_frames:
            raise ConfigurationError(f"frame {frame} out of range")
        self._free.append(frame)


@dataclass
class AddressSpace:
    """A process's virtual address space with on-demand page mapping.

    Virtual addresses are plain integers.  :meth:`translate` maps them to
    physical addresses, faulting in pages from the shared allocator the first
    time each page is touched (anonymous-mmap semantics — all the paper's
    attack buffers are ordinary arrays).
    """

    pid: int
    allocator: FrameAllocator
    page_table: Dict[int, int] = field(default_factory=dict)
    _next_alloc_va: int = field(default=0x1000_0000, repr=False)

    def translate(self, virtual_address: int) -> int:
        """Translate ``virtual_address``, mapping its page on first touch."""
        if virtual_address < 0:
            raise ConfigurationError(
                f"virtual address must be non-negative, got {virtual_address:#x}"
            )
        page = virtual_address >> 12
        frame = self.page_table.get(page)
        if frame is None:
            frame = self.allocator.allocate()
            self.page_table[page] = frame
        return (frame << 12) | (virtual_address & _OFFSET_MASK)

    def is_mapped(self, virtual_address: int) -> bool:
        """Whether the page containing ``virtual_address`` is mapped."""
        return (virtual_address >> 12) in self.page_table

    def allocate_buffer(self, size: int, align: int = PAGE_SIZE) -> int:
        """Reserve a fresh region of virtual addresses and return its base.

        The region is only *reserved* here; pages fault in lazily on first
        translate, like anonymous mmap.  ``align`` must be a power of two.
        """
        if size <= 0:
            raise ConfigurationError(f"size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise ConfigurationError(f"align must be a power of two, got {align}")
        base = (self._next_alloc_va + align - 1) & ~(align - 1)
        self._next_alloc_va = base + size
        return base
