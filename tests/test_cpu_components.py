"""TSC model, scheduler noise, perf counters, op validation."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.cache.stats import CacheStats
from repro.cpu.noise import SchedulerNoise
from repro.cpu.ops import Delay, Load, SpinUntil, Store
from repro.cpu.perf_counters import PerfReport, loads_per_millisecond
from repro.cpu.tsc import TimestampCounter


class TestTimestampCounter:
    def test_read_floor(self):
        tsc = TimestampCounter(granularity=10)
        assert tsc.read(1234.7) == 1230

    def test_default_granularity_is_cycle(self):
        tsc = TimestampCounter()
        assert tsc.read(1234.9) == 1234

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            TimestampCounter(read_overhead=-1)
        with pytest.raises(ConfigurationError):
            TimestampCounter(granularity=0)
        with pytest.raises(ConfigurationError):
            TimestampCounter(read_jitter=-2)


class TestSchedulerNoise:
    def test_arrivals_are_after_now(self):
        noise = SchedulerNoise(mean_interval_cycles=1000.0)
        rng = random.Random(0)
        for _ in range(100):
            assert noise.next_arrival_after(500.0, rng) > 500.0

    def test_mean_interval_roughly_respected(self):
        noise = SchedulerNoise(mean_interval_cycles=1000.0)
        rng = random.Random(1)
        gaps = [noise.next_arrival_after(0.0, rng) for _ in range(3000)]
        mean = sum(gaps) / len(gaps)
        assert 900 < mean < 1100

    def test_duration_bounds(self):
        noise = SchedulerNoise(min_duration=100, max_duration=200)
        rng = random.Random(2)
        for _ in range(100):
            assert 100 <= noise.sample_duration(rng) <= 200

    def test_fixed_duration(self):
        noise = SchedulerNoise(min_duration=50, max_duration=50)
        assert noise.sample_duration(random.Random(0)) == 50

    def test_disabled_never_fires_in_practice(self):
        noise = SchedulerNoise.disabled()
        assert noise.next_arrival_after(0.0, random.Random(0)) > 1e15

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            SchedulerNoise(mean_interval_cycles=0)
        with pytest.raises(ConfigurationError):
            SchedulerNoise(min_duration=10, max_duration=5)


class TestOps:
    def test_negative_addresses_rejected(self):
        for op in (Load, Store):
            with pytest.raises(ConfigurationError):
                op(-1)

    def test_negative_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            SpinUntil(-5)
        with pytest.raises(ConfigurationError):
            Delay(-5)

    def test_ops_are_hashable_values(self):
        assert Load(0x40) == Load(0x40)
        assert hash(Store(0x40)) == hash(Store(0x40))


class TestPerfReport:
    def make_stats(self):
        stats = CacheStats()
        for _ in range(90):
            stats.record_access(1, owner=0, hit=True)
        for _ in range(10):
            stats.record_access(1, owner=0, hit=False, write=True)
            stats.record_access(2, owner=0, hit=True)
        return stats

    def test_miss_rates(self):
        report = PerfReport.from_stats(self.make_stats(), owner=0, cycles=2.2e6)
        assert report.l1_miss_rate == pytest.approx(0.1)
        assert report.l2_miss_rate == 0.0

    def test_loads_exclude_stores(self):
        report = PerfReport.from_stats(self.make_stats(), owner=0, cycles=2.2e6)
        assert report.l1_accesses == 100
        assert report.l1_loads == 90

    def test_loads_per_ms(self):
        # 2.2e6 cycles at 2.2 GHz is exactly 1 ms.
        report = PerfReport.from_stats(self.make_stats(), owner=0, cycles=2.2e6)
        assert report.l1_loads_per_ms == pytest.approx(90.0)
        assert report.total_loads_per_ms == pytest.approx(100.0)

    def test_miss_rates_mapping(self):
        report = PerfReport.from_stats(self.make_stats(), owner=0, cycles=2.2e6)
        assert set(report.miss_rates()) == {"L1D", "L2", "LLC"}

    def test_loads_per_ms_validates_cycles(self):
        with pytest.raises(ConfigurationError):
            loads_per_millisecond(10, 0)
