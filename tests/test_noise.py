"""Noise processes and benign workloads."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.cpu.ops import Delay, Load, SpinUntil, Store
from repro.mem.address_space import AddressSpace, FrameAllocator
from repro.noise.models import NoiseConfig, TargetSetNoiseProgram
from repro.noise.workloads import CompilerLikeWorkload


@pytest.fixture
def space():
    return AddressSpace(pid=5, allocator=FrameAllocator())


def drain_ops(program):
    """Run a generator program standalone, answering 0 to every yield."""
    ops = []
    generator = program.run()
    try:
        op = next(generator)
        while True:
            ops.append(op)
            op = generator.send(0)
    except StopIteration:
        return ops


class TestNoiseConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(mean_interval_cycles=0)
        with pytest.raises(ConfigurationError):
            NoiseConfig(store_fraction=1.5)
        with pytest.raises(ConfigurationError):
            NoiseConfig(distinct_lines=0)
        with pytest.raises(ConfigurationError):
            NoiseConfig(duration_cycles=0)


class TestTargetSetNoise:
    def test_touches_until_duration(self):
        program = TargetSetNoiseProgram(
            lines=[0x1000, 0x2000],
            config=NoiseConfig(
                mean_interval_cycles=1000.0, duration_cycles=50000
            ),
            seed=0,
        )
        ops = drain_ops(program)
        memory_ops = [op for op in ops if isinstance(op, (Load, Store))]
        assert 20 <= len(memory_ops) <= 100  # ~50 expected

    def test_pure_loads_by_default(self):
        program = TargetSetNoiseProgram(
            lines=[0x1000],
            config=NoiseConfig(mean_interval_cycles=500.0, duration_cycles=20000),
        )
        ops = drain_ops(program)
        assert not any(isinstance(op, Store) for op in ops)

    def test_store_fraction(self):
        program = TargetSetNoiseProgram(
            lines=[0x1000],
            config=NoiseConfig(
                mean_interval_cycles=200.0,
                duration_cycles=100000,
                store_fraction=1.0,
            ),
        )
        ops = drain_ops(program)
        memory_ops = [op for op in ops if isinstance(op, (Load, Store))]
        assert memory_ops and all(isinstance(op, Store) for op in memory_ops)

    def test_requires_lines(self):
        with pytest.raises(ConfigurationError):
            TargetSetNoiseProgram(lines=[], config=NoiseConfig())

    def test_spins_between_touches(self):
        program = TargetSetNoiseProgram(
            lines=[0x1000],
            config=NoiseConfig(mean_interval_cycles=1000.0, duration_cycles=20000),
        )
        ops = drain_ops(program)
        assert any(isinstance(op, SpinUntil) for op in ops)


class TestWorkloads:
    def test_compiler_like_phases(self, space):
        workload = CompilerLikeWorkload(space=space, total_accesses=2000, seed=0)
        ops = drain_ops(workload)
        memory_ops = [op for op in ops if isinstance(op, (Load, Store))]
        assert len(memory_ops) == 2000
        assert any(isinstance(op, Delay) for op in ops)

    def test_compiler_touches_all_tiers(self, space):
        workload = CompilerLikeWorkload(space=space, total_accesses=4000, seed=1)
        ops = drain_ops(workload)
        addresses = {op.address for op in ops if isinstance(op, (Load, Store))}
        tiers_touched = sum(
            any(base <= a < base + size for a in addresses)
            for base, size in (
                (workload.hot_base, 16 * 1024),
                (workload.stream_base, 192 * 1024),
                (workload.heap_base, 2 << 20),
            )
        )
        assert tiers_touched == 3

    def test_validation(self, space):
        with pytest.raises(ConfigurationError):
            CompilerLikeWorkload(space=space, total_accesses=0)
