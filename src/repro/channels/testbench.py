"""Shared testbench: one physical core, a hierarchy, per-process spaces.

Every channel (WB and the baselines) and several experiments need the same
scaffolding: a frame allocator, a configured cache hierarchy, one address
space per simulated process, and an SMT core to interleave the programs.
The testbench centralises that assembly so channel code only describes the
*programs*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.configs import XeonE5_2650Config, make_xeon_hierarchy
from repro.cache.hierarchy import CacheHierarchy, HierarchyFactory
from repro.cpu.noise import SchedulerNoise
from repro.cpu.smt import SMTCore
from repro.cpu.thread import HardwareThread, Program
from repro.cpu.tsc import TimestampCounter
from repro.mem.address_space import AddressSpace, FrameAllocator


@dataclass
class TestbenchConfig:
    """Platform-level knobs shared by every channel run."""

    seed: int = 0
    #: Overrides applied to :class:`XeonE5_2650Config` fields, e.g.
    #: ``{"l1_policy": "random"}``.
    hierarchy_overrides: Dict[str, object] = field(default_factory=dict)
    #: When set, builds the hierarchy instead of :func:`make_xeon_hierarchy`
    #: (the defense evaluations inject PLcache/partitioned/... variants
    #: this way).  Receives the bench's derived RNG.
    hierarchy_factory: Optional[HierarchyFactory] = None
    #: ``None`` enables the default OS noise; pass
    #: :meth:`SchedulerNoise.disabled` for clean-room runs.
    scheduler_noise: Optional[SchedulerNoise] = None
    tsc: TimestampCounter = field(default_factory=TimestampCounter)
    #: Upper bound on simulated cycles, guarding against runaway spins.
    max_cycles: float = 5e9


class ChannelTestbench:
    """Owns the simulated machine for one channel run."""

    def __init__(
        self,
        config: Optional[TestbenchConfig] = None,
        hierarchy: Optional[CacheHierarchy] = None,
    ) -> None:
        self.config = config or TestbenchConfig()
        self.rng = ensure_rng(self.config.seed)
        if hierarchy is not None:
            self.hierarchy = hierarchy
        elif self.config.hierarchy_factory is not None:
            self.hierarchy = self.config.hierarchy_factory(
                derive_rng(self.rng, "hierarchy")
            )
        else:
            self.hierarchy = make_xeon_hierarchy(
                rng=derive_rng(self.rng, "hierarchy"),
                **self.config.hierarchy_overrides,
            )
        self.allocator = FrameAllocator()
        self._spaces: Dict[int, AddressSpace] = {}
        self._threads: List[HardwareThread] = []

    # ------------------------------------------------------------------
    # Process/thread assembly
    # ------------------------------------------------------------------
    def new_space(self, pid: int) -> AddressSpace:
        """A fresh address space for process ``pid`` (no sharing)."""
        if pid in self._spaces:
            raise ConfigurationError(f"pid {pid} already has an address space")
        space = AddressSpace(pid=pid, allocator=self.allocator)
        self._spaces[pid] = space
        return space

    def space(self, pid: int) -> AddressSpace:
        """The address space previously created for ``pid``."""
        try:
            return self._spaces[pid]
        except KeyError:
            raise ConfigurationError(f"no address space for pid {pid}")

    def add_thread(
        self, tid: int, space: AddressSpace, program: Program, name: str
    ) -> HardwareThread:
        """Register a hardware thread to run in this bench."""
        thread = HardwareThread(tid=tid, space=space, program=program, name=name)
        self._threads.append(thread)
        return thread

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SMTCore:
        """Run all registered threads to completion; returns the core."""
        if not self._threads:
            raise ConfigurationError("no threads registered on the testbench")
        noise = self.config.scheduler_noise
        if noise is None:
            noise = SchedulerNoise()
        core = SMTCore(
            hierarchy=self.hierarchy,
            threads=self._threads,
            tsc=self.config.tsc,
            scheduler_noise=noise,
            rng=derive_rng(self.rng, "core"),
            max_cycles=self.config.max_cycles,
        )
        core.run()
        return core

    @property
    def l1_layout(self):
        """Address layout of the L1 (what set builders index with)."""
        return self.hierarchy.l1.layout

    def pick_target_set(self, requested: Optional[int] = None) -> int:
        """Validate or choose the target set for a channel run."""
        num_sets = self.l1_layout.num_sets
        if requested is None:
            return self.rng.randrange(num_sets)
        if not 0 <= requested < num_sets:
            raise ConfigurationError(
                f"target set {requested} out of range [0, {num_sets})"
            )
        return requested


def share_buffer(
    source: AddressSpace, destination: AddressSpace, base: int, size: int
) -> None:
    """Map ``[base, base+size)`` of ``source`` into ``destination`` (shared).

    The cross-core WB channel shares its target lines this way, as
    Flush+Reload would share a library page (the paper's taxonomy).
    Sharing is modelled by aliasing the page-table entries, so both
    processes' accesses hit the same physical lines.
    """
    if size <= 0:
        raise ConfigurationError(f"size must be positive, got {size}")
    first_page = base >> 12
    last_page = (base + size - 1) >> 12
    for page in range(first_page, last_page + 1):
        source.translate(page << 12)  # ensure mapped
        destination.page_table[page] = source.page_table[page]
