"""Hardware threads and the program protocol.

A *program* is any object with a ``run()`` method returning a generator of
:mod:`operations <repro.cpu.ops>`.  A :class:`HardwareThread` binds a program
to a hardware-thread id and an address space and holds its scheduling state
(local clock, pending preemption) for the SMT core.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.common.errors import ConfigurationError
from repro.cpu.ops import Op
from repro.mem.address_space import AddressSpace

#: The generator type a program's ``run`` must return: yields operations,
#: receives each operation's result back through ``send``.
OpGenerator = Generator[Op, object, None]


class Program:
    """Base class for simulated programs.

    Subclasses implement :meth:`run`.  The base class exists mostly for
    documentation and isinstance-friendly typing; any object with a
    compatible ``run`` is accepted by :class:`HardwareThread`.
    """

    def run(self) -> OpGenerator:
        """Return the operation generator for one execution."""
        raise NotImplementedError


class HardwareThread:
    """One SMT hardware thread: a program plus scheduling state."""

    def __init__(
        self,
        tid: int,
        space: AddressSpace,
        program: Program,
        name: Optional[str] = None,
    ) -> None:
        if tid < 0:
            raise ConfigurationError(f"tid must be non-negative, got {tid}")
        self.tid = tid
        self.space = space
        self.program = program
        self.name = name or f"thread{tid}"
        # --- scheduling state, owned by the SMT core ---
        self.local_time: float = 0.0
        self.generator: Optional[OpGenerator] = None
        self.finished = False
        self.next_preemption: float = float("inf")

    def start(self) -> None:
        """Instantiate the program's generator (idempotent guard)."""
        if self.generator is not None:
            raise ConfigurationError(f"{self.name} already started")
        self.generator = self.program.run()

    def __repr__(self) -> str:
        state = "finished" if self.finished else f"t={self.local_time:.0f}"
        return f"<HardwareThread {self.name} tid={self.tid} {state}>"
