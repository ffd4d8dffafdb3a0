"""Benchmark: fast struct-of-arrays engine vs the reference core.

Unlike the other benchmarks (which time whole experiments), this one
times the raw simulation loop on the Figure 6 covert-channel workload —
the inner loop every experiment spends its cycles in.  Both engines
replay the identical trace; the fingerprints must match (the parity
guarantee), and the benchmark table shows the speedup.

``scripts/bench_engine.py`` is the scripted version of this measurement
and writes the committed ``BENCH_engine.json``.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.configs import make_xeon_hierarchy
from repro.engine import fig6_workload, run_trace


@pytest.fixture(scope="module")
def trace():
    return fig6_workload(num_symbols=256, d=4, seed=0)


@pytest.fixture(scope="module")
def reference_fingerprint(trace):
    hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="reference")
    return run_trace(hierarchy, trace, owner=0).fingerprint()


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_bench_engine(benchmark, engine, trace, reference_fingerprint):
    def replay():
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine=engine)
        return run_trace(hierarchy, trace, owner=0)

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.fingerprint() == reference_fingerprint


def test_bench_fast_engine_idle_bus(benchmark, trace, reference_fingerprint):
    """Telemetry attached but disabled: must cost ~nothing on the fast path."""
    from repro.telemetry import TelemetryBus

    def replay():
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="fast")
        hierarchy.attach_telemetry(TelemetryBus(enabled=False))
        return run_trace(hierarchy, trace, owner=0)

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.fingerprint() == reference_fingerprint


def test_bench_fast_engine_telemetry_on(benchmark, trace, reference_fingerprint):
    """Full observability: the pay-for-what-you-use upper bound."""
    from repro.telemetry import TelemetryBus, TraceRecorder

    def replay():
        hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine="fast")
        hierarchy.attach_telemetry(TelemetryBus()).subscribe(TraceRecorder())
        return run_trace(hierarchy, trace, owner=0)

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.fingerprint() == reference_fingerprint
