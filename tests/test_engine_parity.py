"""Differential parity: the fast engine must be bit-identical to the oracle.

The reference object-per-line core is the semantic oracle; the fast
struct-of-arrays core (:mod:`repro.engine`) must reproduce it exactly —
per-access hit levels, latencies, dirty-victim flags and eviction streams,
final cache state, and statistics counters.  Any divergence, however
small, is a bug in the fast engine.

The fuzz matrix covers every policy in the replacement registry, both L1
write policies, and seeded random traces of >= 10,000 accesses, plus a
real WB-channel transmission end to end.
"""

import random

import pytest

from repro.cache.cache import WritePolicy
from repro.cache.configs import make_xeon_hierarchy
from repro.defenses import (
    PLCache,
    RandomFillCache,
    RandomizedMappingCache,
    WayPartitionedCache,
    make_partitioned_hierarchy,
    make_plcache_hierarchy,
    make_random_fill_hierarchy,
    make_randomized_mapping_hierarchy,
    make_write_through_hierarchy,
)
from repro.engine.selection import cache_class, engine_context
from repro.replacement.registry import available_policies
from tests.replay import event_stream, fig6_trace, random_trace, replay

SEED = 1234


def build_pair(policy, write_policy=WritePolicy.WRITE_BACK, seed=SEED):
    """Two hierarchies with identical RNG streams, one per engine."""
    kwargs = dict(l1_policy=policy, l1_write_policy=write_policy)
    reference = make_xeon_hierarchy(
        rng=random.Random(seed), engine="reference", **kwargs
    )
    fast = make_xeon_hierarchy(rng=random.Random(seed), engine="fast", **kwargs)
    return reference, fast


def assert_state_identical(reference, fast):
    """Every set of every level holds the same normalised way states."""
    for level_ref, level_fast in zip(reference.levels, fast.levels):
        for index, (set_ref, set_fast) in enumerate(
            zip(level_ref.sets, level_fast.sets)
        ):
            assert set_ref.way_states() == set_fast.way_states(), (
                f"{level_ref.name} set {index} diverged"
            )
            assert set_ref.index_snapshot() == set_fast.index_snapshot()
            assert set_ref.dirty_count() == set_fast.dirty_count()
            assert set_ref.valid_count() == set_fast.valid_count()


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize(
    "write_policy", [WritePolicy.WRITE_BACK, WritePolicy.WRITE_THROUGH]
)
def test_random_trace_parity(policy, write_policy):
    """>= 10k random accesses: identical event streams and final state."""
    trace = random_trace(
        num_accesses=10_000,
        working_set_lines=1024,
        write_ratio=0.3,
        seed=SEED,
    )
    reference, fast = build_pair(policy, write_policy)
    events_ref = event_stream(reference, trace, owner=0)
    events_fast = event_stream(fast, trace, owner=0)
    assert events_ref == events_fast
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


@pytest.mark.parametrize("policy", available_policies())
def test_fig6_trace_parity(policy):
    """The Figure 6 channel inner loop replays identically."""
    trace = fig6_trace(num_symbols=400, d=4, seed=SEED)
    reference, fast = build_pair(policy)
    assert event_stream(reference, trace) == event_stream(fast, trace)
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


#: Each defended builder with its L1D's class and name; ``None`` is the
#: engine's own class (the write-through L1D is the plain Xeon one).
DEFENDED = [
    (make_plcache_hierarchy, PLCache, "L1D-PLcache"),
    (make_partitioned_hierarchy, WayPartitionedCache, "L1D-partitioned"),
    (make_random_fill_hierarchy, RandomFillCache, "L1D-randomfill"),
    (make_randomized_mapping_hierarchy, RandomizedMappingCache, "L1D-randomized"),
    (make_write_through_hierarchy, None, "L1D"),
]


@pytest.mark.parametrize(
    "build, l1_class, l1_name", DEFENDED, ids=[name for _, _, name in DEFENDED]
)
def test_defended_hierarchy_parity(build, l1_class, l1_name):
    """A defended machine runs L2 and LLC on the selected engine, keeps
    its own L1D, and replays owners 0 and 1 identically on both."""
    trace = random_trace(
        num_accesses=4_000, working_set_lines=1024, write_ratio=0.3, seed=SEED
    )
    chunk = 500
    streams, stats = {}, {}
    for engine in ("reference", "fast"):
        with engine_context(engine):
            hierarchy = build(rng=random.Random(SEED))
        core = cache_class(engine)
        assert [type(level) for level in hierarchy.levels] == [
            l1_class or core, core, core
        ]
        assert [level.name for level in hierarchy.levels] == [l1_name, "L2", "LLC"]
        streams[engine] = [
            event
            for start in range(0, len(trace), chunk)
            for event in event_stream(
                hierarchy,
                trace[start:start + chunk],
                owner=start // chunk % 2,
            )
        ]
        stats[engine] = hierarchy.stats.snapshot()
    assert streams["reference"] == streams["fast"]
    assert stats["reference"] == stats["fast"]


def test_wb_channel_transmission_parity():
    """A real WB-protocol transmission decodes identically on both engines."""
    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_wb_channel

    results = {}
    for engine in ("reference", "fast"):
        outcome = run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=4),
                period_cycles=1600,
                message_bits=48,
                seed=5,
                hierarchy_overrides={"engine": engine},
            )
        )
        results[engine] = outcome
    reference, fast = results["reference"], results["fast"]
    assert reference.sent_bits == fast.sent_bits
    assert reference.received_bits == fast.received_bits
    assert reference.bit_error_rate == fast.bit_error_rate


@pytest.mark.parametrize("policy", available_policies())
def test_telemetry_event_stream_parity(policy):
    """With telemetry on, both engines emit bit-identical event streams.

    The emission sites live in the hierarchy walk both engines share.
    NamedTuple equality compares every field of every event.
    """
    from repro.telemetry import EventKind, TelemetryBus, TraceRecorder

    trace = random_trace(
        num_accesses=4_000,
        working_set_lines=1024,
        write_ratio=0.3,
        seed=SEED,
    )
    reference, fast = build_pair(policy)
    recorders = {}
    for name, hierarchy in (("reference", reference), ("fast", fast)):
        recorder = TraceRecorder(capacity=None)
        hierarchy.attach_telemetry(TelemetryBus()).subscribe(recorder)
        recorders[name] = recorder
    replay(reference, trace, owner=0)
    replay(fast, trace, owner=0)

    events_ref = recorders["reference"].events
    events_fast = recorders["fast"].events
    assert events_ref, "telemetry-on run produced no events"
    assert events_ref == events_fast
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()
    # The stream is internally consistent too: L1 misses reconstructed
    # from events match the hierarchy's own statistics counters.
    misses_l1 = sum(
        1
        for event in events_ref
        if event.kind == EventKind.MISS and event.level == 1
    )
    assert misses_l1 == reference.stats.snapshot()["L1"]["misses"]


def test_experiment_results_identical_across_engines():
    """A full registered experiment is engine-invariant."""
    from repro.experiments.profiles import QUICK
    from repro.experiments.registry import run_experiment

    result_ref = run_experiment("table4", profile=QUICK, seed=0)
    result_fast = run_experiment(
        "table4", profile=QUICK.with_engine("fast"), seed=0
    )
    assert result_ref.rows == result_fast.rows
    assert result_ref.series == result_fast.series


def test_faulted_transmission_parity():
    """An injected-fault run (drift, slips, drops, co-runner) is
    engine-invariant: identical fault schedules AND identical bit errors."""
    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_wb_channel
    from repro.faults import DEFAULT_FAULT_SPEC

    results = {}
    for engine in ("reference", "fast"):
        outcome = run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=1),
                period_cycles=5500,
                message_bits=64,
                seed=3,
                faults=DEFAULT_FAULT_SPEC.scaled(1.0),
                hierarchy_overrides={"engine": engine},
            )
        )
        results[engine] = outcome
    reference, fast = results["reference"], results["fast"]
    assert reference.fault_summary == fast.fault_summary
    assert reference.fault_summary is not None
    assert reference.sent_bits == fast.sent_bits
    assert reference.received_bits == fast.received_bits
    assert reference.bit_error_rate == fast.bit_error_rate


def test_robust_protocol_parity():
    """The full self-healing stack delivers identical outcomes per engine."""
    from dataclasses import asdict

    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_robust_wb_channel
    from repro.faults import DEFAULT_FAULT_SPEC

    results = {}
    for engine in ("reference", "fast"):
        results[engine] = run_robust_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=1),
                period_cycles=5500,
                message_bits=32,
                seed=1,
                faults=DEFAULT_FAULT_SPEC.scaled(1.0),
                hierarchy_overrides={"engine": engine},
            )
        )
    assert asdict(results["reference"]) == asdict(results["fast"])
