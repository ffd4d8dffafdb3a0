"""Operations a simulated thread can yield to the SMT core.

A thread is a generator; each ``yield`` hands the core one operation and
receives its result (``generator.send``).  The vocabulary is deliberately
tiny — exactly what the paper's PoC programs execute:

=============  =======================================  ==================
Operation      Hardware analogue                        Result sent back
=============  =======================================  ==================
``Load``       ``mov (%r8), %r8``                       latency in cycles
``Store``      ``mov %rax, (%r8)``                      latency in cycles
``RdTSC``      ``rdtscp``                               timestamp value
``SpinUntil``  ``while TSC < t: nothing``               timestamp at exit
``Delay``      a fixed stretch of non-memory work       None
=============  =======================================  ==================

There is no ``clflush``: the WB channel and the LRU-channel baseline both
use loads and stores only, and neither needs shared memory.

Addresses are *virtual* in the issuing thread's address space; the core
translates through the thread's page table before touching the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Load:
    """Demand load of one cache line; result is the access latency."""

    address: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError(f"negative address {self.address:#x}")


@dataclass(frozen=True)
class Store:
    """Demand store to one cache line; result is the access latency.

    This is the sender's whole encoding arsenal: a store puts the target
    line into the dirty state (write-back + write-allocate).
    """

    address: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError(f"negative address {self.address:#x}")


@dataclass(frozen=True)
class RdTSC:
    """Read the timestamp counter; result is the (quantised) TSC value."""


@dataclass(frozen=True)
class SpinUntil:
    """Busy-wait until the TSC reaches ``target``; result is TSC at exit.

    Models the paper's ``while TSC < T_last + Ts: nothing`` loops, including
    the overshoot granularity of a polling loop.
    """

    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ConfigurationError(f"negative TSC target {self.target}")


@dataclass(frozen=True)
class Delay:
    """Consume ``cycles`` of compute without touching memory."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConfigurationError(f"negative delay {self.cycles}")


@dataclass(frozen=True)
class ResetStats:
    """Zero the hierarchy's performance counters.

    Not a hardware instruction: it models attaching ``perf`` to an
    already-running process, so warm-up traffic is excluded from the
    measured counters (Tables 6 and 7).
    """


Op = Union[Load, Store, RdTSC, SpinUntil, Delay, ResetStats]
