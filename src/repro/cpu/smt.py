"""The SMT core: interleaves hardware threads against a shared hierarchy.

Execution model
---------------
Each thread has a *local clock*.  The core repeatedly takes the runnable
thread with the smallest local clock, executes its next operation against
the shared :class:`~repro.cache.CacheHierarchy`, and advances that thread's
clock by the operation's cost (plus a per-operation issue cost).  This is
the standard conservative co-simulation discipline: shared-state updates
happen in global-time order, so a receiver measurement that overlaps a
sender encode really observes a half-updated target set — the paper's
dominant high-rate error source.

Preemptions from the per-thread :class:`~repro.cpu.noise.SchedulerNoise`
freeze a thread's clock forward by thousands of cycles, producing the bit
loss / insertion errors of Section 5.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.noise import SchedulerNoise
from repro.cpu.ops import Delay, Load, Op, RdTSC, ResetStats, SpinUntil, Store
from repro.cpu.thread import HardwareThread
from repro.cpu.tsc import TimestampCounter

#: Cycles charged for issuing any operation (decode + AGU, amortised).
ISSUE_COST = 1

#: Cycles per iteration of a TSC polling loop; SpinUntil exits with a
#: uniform overshoot in [0, SPIN_QUANTUM).  A ``while (rdtsc() < t);`` loop
#: iterates in roughly the cost of one serialising ``rdtscp`` (~25 cycles),
#: so each party re-anchors its period with that granularity.  The
#: resulting random walk of the sender/receiver relative phase is the main
#: reason bit error rates climb at small symbol periods (Figure 6).
SPIN_QUANTUM = 35


class SMTCore:
    """A physical core running up to a few SMT hardware threads.

    The paper uses exactly two hyper-threads; the model accepts more so
    the Table 6 scenarios (sender + benign co-runner) and the noise
    experiments (a third polluter process) reuse the same machinery.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        threads: Sequence[HardwareThread],
        tsc: Optional[TimestampCounter] = None,
        scheduler_noise: Optional[SchedulerNoise] = None,
        rng: Optional[random.Random] = None,
        max_cycles: float = 5e9,
    ) -> None:
        if not threads:
            raise ConfigurationError("SMTCore needs at least one thread")
        tids = [thread.tid for thread in threads]
        if len(set(tids)) != len(tids):
            raise ConfigurationError(f"duplicate thread ids: {tids}")
        self.hierarchy = hierarchy
        self.threads: List[HardwareThread] = list(threads)
        self.tsc = tsc or TimestampCounter()
        self.scheduler_noise = scheduler_noise or SchedulerNoise.disabled()
        self.rng = ensure_rng(rng)
        self._noise_rngs: Dict[int, random.Random] = {
            thread.tid: derive_rng(self.rng, f"noise/{thread.tid}")
            for thread in self.threads
        }
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run every thread to completion (or the cycle budget)."""
        for thread in self.threads:
            thread.start()
            noise_rng = self._noise_rngs[thread.tid]
            thread.next_preemption = self.scheduler_noise.next_arrival_after(
                0.0, noise_rng
            )
        # Prime each generator to its first yield.
        for thread in self.threads:
            self._advance(thread, first=True, result=None)

        while True:
            runnable = [t for t in self.threads if not t.finished]
            if not runnable:
                return
            thread = min(runnable, key=lambda t: t.local_time)
            if thread.local_time > self.max_cycles:
                raise SimulationError(
                    f"cycle budget exceeded ({self.max_cycles:g} cycles); "
                    "a program is probably spinning forever"
                )
            op = thread.pending_op  # type: ignore[attr-defined]
            result = self._execute(thread, op)
            self._advance(thread, first=False, result=result)

    def _advance(self, thread: HardwareThread, first: bool, result: object) -> None:
        """Step the thread's generator to its next yield (or finish)."""
        assert thread.generator is not None
        try:
            if first:
                op = next(thread.generator)
            else:
                op = thread.generator.send(result)
        except StopIteration:
            thread.finished = True
            return
        thread.pending_op = op  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------
    def _execute(self, thread: HardwareThread, op: Op) -> object:
        self._apply_preemptions(thread)
        thread.local_time += ISSUE_COST

        if isinstance(op, Load):
            trace = self.hierarchy.access(
                thread.space.translate(op.address), write=False, owner=thread.tid
            )
            thread.local_time += trace.latency
            return trace.latency
        if isinstance(op, Store):
            trace = self.hierarchy.access(
                thread.space.translate(op.address), write=True, owner=thread.tid
            )
            # Stores are posted: the store buffer hides the fill latency
            # from the issuing thread, though the cache-state change (the
            # dirty bit the WB channel encodes with) has already happened.
            cost = self.hierarchy.latency.posted_store_cost
            thread.local_time += cost
            return cost
        if isinstance(op, RdTSC):
            thread.local_time += self.tsc.read_overhead
            value = self.tsc.read(thread.local_time)
            if self.tsc.read_jitter:
                value += self.rng.randint(-self.tsc.read_jitter, self.tsc.read_jitter)
            return value
        if isinstance(op, SpinUntil):
            if thread.local_time < op.target:
                overshoot = self.rng.randrange(SPIN_QUANTUM)
                thread.local_time = op.target + overshoot
                # A long spin may absorb preemptions that arrived during it.
                self._apply_preemptions(thread)
            return self.tsc.read(thread.local_time)
        if isinstance(op, Delay):
            thread.local_time += op.cycles
            return None
        if isinstance(op, ResetStats):
            self.hierarchy.stats.reset()
            bus = self.hierarchy.telemetry
            if bus is not None:
                # Telemetry subscribers observe the same measurement
                # epoch the counters do: windowing restarts here.
                bus.mark("reset-stats")
            return None
        raise ConfigurationError(f"unknown operation {op!r}")

    def _apply_preemptions(self, thread: HardwareThread) -> None:
        """Charge any OS preemptions that arrived before 'now'."""
        noise_rng = self._noise_rngs[thread.tid]
        while thread.next_preemption <= thread.local_time:
            arrived = thread.next_preemption
            thread.local_time += self.scheduler_noise.sample_duration(noise_rng)
            thread.next_preemption = self.scheduler_noise.next_arrival_after(
                max(arrived, thread.local_time), noise_rng
            )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def elapsed_cycles(self) -> float:
        """Latest local clock across all threads (total run length)."""
        return max(thread.local_time for thread in self.threads)
