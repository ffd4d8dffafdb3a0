"""Pointer-chase linked list used for fine-grained latency measurement.

Listing 1 of the paper measures replacement latency with a chain of
dependent ``mov (%r8), %r8`` loads bracketed by ``rdtscp``: each load's
address comes from the previous load's data, so the accesses are fully
serialized and a single timer read covers the whole traversal.

The simulator reproduces the *structure*: a :class:`PointerChaseList` owns the
line addresses in traversal order, and the receiver issues the loads
back-to-back as dependent operations (the SMT core charges them
sequentially, which is exactly what the data dependency enforces on real
hardware).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng


@dataclass
class PointerChaseList:
    """A linked list threaded through a collection of cache-line addresses.

    ``order`` is the traversal order: element ``i`` conceptually stores the
    address of element ``i + 1``.  Traversal is what the receiver times.
    """

    order: List[int]

    def __post_init__(self) -> None:
        if not self.order:
            raise ConfigurationError("pointer-chase list cannot be empty")
        if len(set(self.order)) != len(self.order):
            raise ConfigurationError("pointer-chase list has duplicate nodes")

    @classmethod
    def from_lines(
        cls,
        lines: Sequence[int],
        rng: Optional[random.Random] = None,
        permute: bool = True,
    ) -> "PointerChaseList":
        """Thread a list through ``lines``, randomly permuted by default.

        Random permutation defeats stride prefetchers on real hardware
        (Section 4.2 of the paper); we keep it for fidelity of the issued
        access sequence.
        """
        order = list(lines)
        if permute:
            ensure_rng(rng).shuffle(order)
        return cls(order)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)
