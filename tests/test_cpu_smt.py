"""SMT core: interleaving, operation semantics, preemption noise."""

import random

import pytest

from repro.cache.configs import make_tiny_hierarchy, make_xeon_hierarchy
from repro.common.errors import ConfigurationError, SimulationError
from repro.cpu.noise import SchedulerNoise
from repro.cpu.ops import Delay, Load, RdTSC, ResetStats, SpinUntil, Store
from repro.cpu.smt import SPIN_QUANTUM, SMTCore
from repro.cpu.thread import HardwareThread, Program
from repro.cpu.tsc import TimestampCounter
from repro.mem.address_space import AddressSpace, FrameAllocator
from tests.programs import as_program


def run_program(generator_fn, hierarchy=None, tsc=None, seed=0):
    """Run a single generator program; returns (thread, core)."""
    hierarchy = hierarchy or make_tiny_hierarchy(rng=random.Random(seed))
    space = AddressSpace(pid=0, allocator=FrameAllocator())
    thread = HardwareThread(
        tid=0, space=space, program=as_program(generator_fn), name="solo"
    )
    core = SMTCore(
        hierarchy=hierarchy,
        threads=[thread],
        tsc=tsc or TimestampCounter(read_jitter=0),
        scheduler_noise=SchedulerNoise.disabled(),
        rng=random.Random(seed),
    )
    core.run()
    return thread, core


class TestOperations:
    def test_load_returns_latency(self):
        results = []

        def program():
            results.append((yield Load(0x1000)))
            results.append((yield Load(0x1000)))

        run_program(program)
        cold, warm = results
        assert cold > warm  # DRAM then L1 hit

    def test_store_is_posted(self):
        results = []

        def program():
            results.append((yield Store(0x1000)))

        _, core = run_program(program)
        # The thread pays only the posted-store cost, not the miss.
        assert results[0] == core.hierarchy.latency.posted_store_cost
        # ...but the dirty state is already there.
        assert core.hierarchy.l1.is_dirty(
            core.threads[0].space.translate(0x1000)
        )

    def test_rdtsc_advances_clock(self):
        def program():
            yield RdTSC()

        thread, core = run_program(program)
        assert thread.local_time >= core.tsc.read_overhead

    def test_spin_until_reaches_target(self):
        observed = []

        def program():
            observed.append((yield SpinUntil(5000)))

        thread, _ = run_program(program)
        assert 5000 <= observed[0] < 5000 + SPIN_QUANTUM + 1
        assert thread.local_time >= 5000

    def test_spin_in_the_past_is_noop(self):
        observed = []

        def program():
            yield Delay(9000)
            observed.append((yield SpinUntil(100)))

        run_program(program)
        assert observed[0] >= 9000

    def test_delay(self):
        def program():
            yield Delay(1234)

        thread, _ = run_program(program)
        assert thread.local_time >= 1234

    def test_reset_stats(self):
        def program():
            yield Load(0x1000)
            yield ResetStats()
            yield Load(0x2000)

        _, core = run_program(program)
        assert core.hierarchy.stats.level(1).accesses == 1


class TestInterleaving:
    def test_global_time_ordering(self):
        """B's stores at t~2000 must be visible to A's load at t~8000.

        Memory operations execute when their thread holds the minimum
        local clock, so cross-thread cache effects respect global time:
        A's reload after the spin must observe the eviction caused by B.
        """
        hierarchy = make_tiny_hierarchy(rng=random.Random(0))  # 2-way L1
        allocator = FrameAllocator()
        space_a = AddressSpace(pid=0, allocator=allocator)
        space_b = AddressSpace(pid=1, allocator=allocator)
        stride = hierarchy.l1.layout.stride_between_conflicts()
        latencies = []

        def program_a():
            yield Load(0x0)  # cold fill into the target set
            yield SpinUntil(8000)
            latencies.append((yield Load(0x0)))

        def program_b():
            yield SpinUntil(2000)
            # Two stores to the same (2-way) set evict A's line.
            yield Store(0x0)
            yield Store(stride)

        threads = [
            HardwareThread(0, space_a, as_program(program_a), "a"),
            HardwareThread(1, space_b, as_program(program_b), "b"),
        ]
        core = SMTCore(
            hierarchy=hierarchy,
            threads=threads,
            scheduler_noise=SchedulerNoise.disabled(),
            rng=random.Random(0),
        )
        core.run()
        # A's reload misses L1 (B evicted it): well above the L1 hit cost.
        assert latencies[0] > hierarchy.latency.l1_hit + 2

    def test_result_routing_between_threads(self):
        """Each thread receives its own operation results."""
        hierarchy = make_xeon_hierarchy(rng=random.Random(0))
        allocator = FrameAllocator()
        results = {0: [], 1: []}

        def make_prog(tid, addr):
            def program():
                results[tid].append((yield Load(addr)))
                results[tid].append((yield Load(addr)))

            return as_program(program)

        threads = [
            HardwareThread(
                tid, AddressSpace(pid=tid, allocator=allocator), make_prog(tid, 0x1000 * (tid + 1)), str(tid)
            )
            for tid in (0, 1)
        ]
        core = SMTCore(
            hierarchy=hierarchy,
            threads=threads,
            scheduler_noise=SchedulerNoise.disabled(),
            rng=random.Random(0),
        )
        core.run()
        for tid in (0, 1):
            assert results[tid][0] > results[tid][1]

    def test_duplicate_tids_rejected(self):
        hierarchy = make_tiny_hierarchy(rng=random.Random(0))
        allocator = FrameAllocator()
        threads = [
            HardwareThread(0, AddressSpace(pid=0, allocator=allocator), as_program(lambda: iter(())), "x"),
            HardwareThread(0, AddressSpace(pid=1, allocator=allocator), as_program(lambda: iter(())), "y"),
        ]
        with pytest.raises(ConfigurationError):
            SMTCore(hierarchy=hierarchy, threads=threads)

    def test_no_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            SMTCore(hierarchy=make_tiny_hierarchy(), threads=[])


class TestCycleBudget:
    def test_runaway_program_raises(self):
        def forever():
            time = 0
            while True:
                time += 10**6
                yield SpinUntil(time)

        hierarchy = make_tiny_hierarchy(rng=random.Random(0))
        space = AddressSpace(pid=0, allocator=FrameAllocator())
        thread = HardwareThread(0, space, as_program(forever), "spin")
        core = SMTCore(
            hierarchy=hierarchy,
            threads=[thread],
            scheduler_noise=SchedulerNoise.disabled(),
            rng=random.Random(0),
            max_cycles=10**7,
        )
        with pytest.raises(SimulationError):
            core.run()


class TestPreemption:
    def test_preemptions_inflate_local_time(self):
        noisy = SchedulerNoise(
            mean_interval_cycles=1000.0, min_duration=500, max_duration=500
        )

        def program():
            for _ in range(50):
                yield Delay(100)

        hierarchy = make_tiny_hierarchy(rng=random.Random(0))
        space = AddressSpace(pid=0, allocator=FrameAllocator())
        thread = HardwareThread(0, space, as_program(program), "w")
        core = SMTCore(
            hierarchy=hierarchy,
            threads=[thread],
            scheduler_noise=noisy,
            rng=random.Random(0),
        )
        core.run()
        # 50 * 100 = 5000 cycles of work; preemptions must add visibly.
        assert thread.local_time > 6000

    def test_disabled_noise_never_fires(self):
        def program():
            for _ in range(50):
                yield Delay(100)

        thread, _ = run_program(program)
        assert thread.local_time < 5200


class TestHardwareThread:
    def test_double_start_rejected(self):
        space = AddressSpace(pid=0, allocator=FrameAllocator())
        thread = HardwareThread(0, space, as_program(lambda: iter(())), "t")
        thread.start()
        with pytest.raises(ConfigurationError):
            thread.start()

    def test_negative_tid_rejected(self):
        space = AddressSpace(pid=0, allocator=FrameAllocator())
        with pytest.raises(ConfigurationError):
            HardwareThread(-1, space, as_program(lambda: iter(())), "t")

    def test_repr(self):
        space = AddressSpace(pid=0, allocator=FrameAllocator())
        thread = HardwareThread(3, space, as_program(lambda: iter(())), "worker")
        assert "worker" in repr(thread)

    def test_base_program_requires_run(self):
        with pytest.raises(NotImplementedError):
            Program().run()
