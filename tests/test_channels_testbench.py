"""ChannelTestbench assembly and shared-buffer mapping."""

import random

import pytest

from repro.cache.configs import make_tiny_hierarchy
from repro.channels.testbench import ChannelTestbench, share_buffer
from repro.channels.testbench import TestbenchConfig as BenchConfig
from repro.common.errors import ConfigurationError
from repro.cpu.ops import Load
from tests.programs import as_program


class TestSpaces:
    def test_new_space_unique_pid(self):
        bench = ChannelTestbench()
        bench.new_space(pid=1)
        with pytest.raises(ConfigurationError):
            bench.new_space(pid=1)

    def test_space_lookup(self):
        bench = ChannelTestbench()
        space = bench.new_space(pid=3)
        assert bench.space(3) is space
        with pytest.raises(ConfigurationError):
            bench.space(4)

    def test_spaces_share_one_allocator(self):
        bench = ChannelTestbench()
        first = bench.new_space(pid=1)
        second = bench.new_space(pid=2)
        assert first.translate(0x1000) != second.translate(0x1000)


class TestTargetSet:
    def test_validates_requested_set(self):
        bench = ChannelTestbench()
        assert bench.pick_target_set(21) == 21
        with pytest.raises(ConfigurationError):
            bench.pick_target_set(64)

    def test_random_choice_in_range(self):
        bench = ChannelTestbench(BenchConfig(seed=5))
        chosen = bench.pick_target_set(None)
        assert 0 <= chosen < bench.l1_layout.num_sets


class TestHierarchySelection:
    def test_default_is_xeon(self):
        bench = ChannelTestbench()
        assert bench.hierarchy.l1.num_sets == 64

    def test_explicit_hierarchy_wins(self):
        tiny = make_tiny_hierarchy(rng=random.Random(0))
        bench = ChannelTestbench(hierarchy=tiny)
        assert bench.hierarchy is tiny

    def test_factory_used_when_configured(self):
        calls = []

        def factory(rng):
            calls.append(rng)
            return make_tiny_hierarchy(rng=rng)

        bench = ChannelTestbench(BenchConfig(hierarchy_factory=factory))
        assert calls
        assert bench.hierarchy.l1.num_sets == 4

    def test_overrides_applied(self):
        bench = ChannelTestbench(
            BenchConfig(hierarchy_overrides={"l1_policy": "random"})
        )
        assert type(bench.hierarchy.l1.sets[0].policy).__name__ == "UniformRandom"


class TestRun:
    def test_requires_threads(self):
        bench = ChannelTestbench()
        with pytest.raises(ConfigurationError):
            bench.run()

    def test_runs_registered_threads(self):
        bench = ChannelTestbench()
        space = bench.new_space(pid=0)
        done = []

        def program():
            yield Load(0x1000)
            done.append(True)

        bench.add_thread(0, space, as_program(program), name="p")
        core = bench.run()
        assert done
        assert core.elapsed_cycles() > 0


class TestShareBuffer:
    def test_pages_alias(self):
        bench = ChannelTestbench()
        first = bench.new_space(pid=1)
        second = bench.new_space(pid=2)
        base = first.allocate_buffer(8192)
        share_buffer(first, second, base, 8192)
        assert first.translate(base) == second.translate(base)
        assert first.translate(base + 4096) == second.translate(base + 4096)

    def test_non_shared_pages_stay_private(self):
        bench = ChannelTestbench()
        first = bench.new_space(pid=1)
        second = bench.new_space(pid=2)
        base = first.allocate_buffer(4096)
        share_buffer(first, second, base, 4096)
        assert first.translate(base + 4096) != second.translate(base + 4096)

    def test_size_validated(self):
        bench = ChannelTestbench()
        first = bench.new_space(pid=1)
        second = bench.new_space(pid=2)
        with pytest.raises(ConfigurationError):
            share_buffer(first, second, 0, 0)
