"""Benign co-runner workloads for the stealthiness experiments (Table 6).

The paper compares the WB sender's performance-counter profile against a
g++ compile sharing the core.  A compiler's cache signature is a mix of
phases: pointer-heavy walks over ASTs/symbol tables (working set larger
than L2, scattered), streaming passes over token buffers, and hot-loop
phases that fit in L1.  :class:`CompilerLikeWorkload` interleaves those
three phases in one generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.cpu.ops import Delay, Load, Store
from repro.cpu.thread import OpGenerator, Program
from repro.mem.address_space import AddressSpace


@dataclass
class CompilerLikeWorkload(Program):
    """g++-like phase mix: hot loops, streaming sweeps, pointer walks.

    Calibration target (paper Table 6, "sender & g++" column): visible L1
    pressure on the co-resident thread, L2 miss rate in the tens of
    percent for its own accesses, and enough LLC traffic to register.
    """

    space: AddressSpace
    total_accesses: int = 40000
    phase_length: int = 600
    seed: int = 0
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.total_accesses <= 0:
            raise ConfigurationError("total_accesses must be positive")
        if self.phase_length <= 0:
            raise ConfigurationError("phase_length must be positive")
        # Hot set: fits in L1. Stream: L2-sized. Heap: larger than L2.
        self.hot_base = self.space.allocate_buffer(16 * 1024)
        self.stream_base = self.space.allocate_buffer(192 * 1024)
        self.heap_base = self.space.allocate_buffer(2 << 20)

    def run(self) -> OpGenerator:
        rng = ensure_rng(self.seed)
        hot_lines = (16 * 1024) // self.line_size
        stream_lines = (192 * 1024) // self.line_size
        heap_lines = (2 << 20) // self.line_size
        issued = 0
        stream_pos = 0
        while issued < self.total_accesses:
            phase = rng.choice(("hot", "hot", "stream", "heap"))
            for _ in range(min(self.phase_length, self.total_accesses - issued)):
                if phase == "hot":
                    address = self.hot_base + rng.randrange(hot_lines) * self.line_size
                    write = rng.random() < 0.35
                elif phase == "stream":
                    address = (
                        self.stream_base
                        + (stream_pos % stream_lines) * self.line_size
                    )
                    stream_pos += 1
                    write = rng.random() < 0.2
                else:
                    address = self.heap_base + rng.randrange(heap_lines) * self.line_size
                    write = rng.random() < 0.15
                if write:
                    yield Store(address)
                else:
                    yield Load(address)
                issued += 1
            # Compute burst between phases (register-file work).
            yield Delay(rng.randrange(50, 300))

