"""MESI protocol state and the coherence directory.

The directory is the serialisation point of the modelled interconnect:
every L1 miss consults it (and every store upgrade goes through it)
before any cache state changes, one request at a time — the SMT core's
global-clock interleaving already delivers requests in a total order, so
the directory never sees concurrent transactions.

State split between directory and caches
----------------------------------------
The caches themselves only know a line's *dirty bit*; the M/E/S
distinction lives here.  The invariants tying the two views together
(checked by :meth:`~repro.coherence.hierarchy.CoherentHierarchy.check_invariants`
and fuzzed in ``tests/test_coherence.py``):

* at most one core holds a line in M or E, and then no other core holds
  it at all;
* a dirty L1 line is always in state M, and an M line is always dirty;
* every line resident in any L1 is also resident in the shared L2
  (inclusion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import SimulationError


class MESIState(enum.Enum):
    """Per-line coherence state of one core's L1 copy.

    Invalid is represented by *absence* from the directory, so the enum
    only carries the three resident states.
    """

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"


@dataclass
class CoherenceStats:
    """Counters over the protocol events (experiment introspection)."""

    #: Remote read found the line Modified: write-back + demote to S.
    downgrades_m_to_s: int = 0
    #: Remote write (RFO) found the line Modified: write-back + invalidate.
    downgrades_m_to_i: int = 0
    #: Remote read found the line Exclusive: silent demote to S.
    downgrades_e_to_s: int = 0
    #: Store hit on a Shared line: invalidate the other sharers, go M.
    upgrades_s_to_m: int = 0
    #: Remote L1 copies invalidated by RFOs and upgrades.
    invalidations: int = 0
    #: L1 copies dropped because their line left the inclusive L2.
    back_invalidations: int = 0
    #: Coherence-induced write-backs (the cross-core timing signal).
    coherence_writebacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view for experiment params and tests."""
        return {
            "downgrades_m_to_s": self.downgrades_m_to_s,
            "downgrades_m_to_i": self.downgrades_m_to_i,
            "downgrades_e_to_s": self.downgrades_e_to_s,
            "upgrades_s_to_m": self.upgrades_s_to_m,
            "invalidations": self.invalidations,
            "back_invalidations": self.back_invalidations,
            "coherence_writebacks": self.coherence_writebacks,
        }


class Directory:
    """Who holds which line, in which MESI state.

    Keyed on line-aligned *physical* addresses (the same addresses the
    caches index with), mapping to a per-core state dict.  Absence means
    Invalid everywhere.
    """

    def __init__(self, line_size: int) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise SimulationError(
                f"line_size must be a positive power of two, got {line_size}"
            )
        self._line_mask = ~(line_size - 1)
        self._entries: Dict[int, Dict[int, MESIState]] = {}

    def line_address(self, address: int) -> int:
        """Align ``address`` down to its cache line."""
        return address & self._line_mask

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state(self, core: int, address: int) -> Optional[MESIState]:
        """``core``'s state for the line, or None (Invalid)."""
        entry = self._entries.get(self.line_address(address))
        if entry is None:
            return None
        return entry.get(core)

    def holders(
        self, address: int, exclude: Optional[int] = None
    ) -> List[int]:
        """Cores holding the line (sorted; ``exclude`` filtered out)."""
        entry = self._entries.get(self.line_address(address))
        if not entry:
            return []
        return sorted(core for core in entry if core != exclude)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def set_state(self, core: int, address: int, state: MESIState) -> None:
        """Record ``core`` holding the line in ``state``."""
        line = self.line_address(address)
        entry = self._entries.setdefault(line, {})
        if state is not MESIState.SHARED:
            others = [c for c in entry if c != core]
            if others:
                raise SimulationError(
                    f"line {line:#x}: core {core} cannot take "
                    f"{state.value} while cores {others} hold copies"
                )
        entry[core] = state

    def clear(self, core: int, address: int) -> None:
        """Drop ``core``'s copy of the line (→ Invalid); idempotent."""
        line = self.line_address(address)
        entry = self._entries.get(line)
        if entry is None:
            return
        entry.pop(core, None)
        if not entry:
            del self._entries[line]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[int, Dict[int, MESIState]]]:
        """Iterate ``(line_address, {core: state})`` pairs (sorted)."""
        for line in sorted(self._entries):
            yield line, dict(self._entries[line])

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[int, Dict[int, str]]:
        """JSON-friendly copy (state values as their letters)."""
        return {
            line: {core: state.value for core, state in sorted(entry.items())}
            for line, entry in sorted(self._entries.items())
        }

    def check(self) -> None:
        """Raise :class:`SimulationError` on a broken ownership invariant."""
        for line, entry in self._entries.items():
            exclusive = [
                core
                for core, state in entry.items()
                if state is not MESIState.SHARED
            ]
            if exclusive and len(entry) > 1:
                raise SimulationError(
                    f"line {line:#x}: exclusive holder(s) {exclusive} "
                    f"coexist with other copies: {entry}"
                )
            if len(exclusive) > 1:
                raise SimulationError(
                    f"line {line:#x}: multiple M/E holders: {exclusive}"
                )
