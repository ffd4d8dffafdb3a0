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
from repro.engine import event_stream, fig6_workload, random_workload, run_trace
from repro.replacement.registry import available_policies

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
    trace = list(
        random_workload(
            num_accesses=10_000,
            working_set_lines=1024,
            write_ratio=0.3,
            seed=SEED,
        )
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
    trace = fig6_workload(num_symbols=400, d=4, seed=SEED)
    reference, fast = build_pair(policy)
    result_ref = run_trace(reference, trace)
    result_fast = run_trace(fast, trace)
    assert result_ref.hit_levels == result_fast.hit_levels
    assert result_ref.latencies == result_fast.latencies
    assert result_ref.dirty_evictions == result_fast.dirty_evictions
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


@pytest.mark.parametrize("policy", available_policies())
def test_randomize_policy_state_parity(policy):
    """Table 2's scramble draws each cache-built set's generator alike."""
    trace = list(
        random_workload(
            num_accesses=4_000, working_set_lines=1024, write_ratio=0.3, seed=SEED
        )
    )
    warmup, rest = trace[:1_000], trace[1_000:]
    reference, fast = build_pair(policy)
    for hierarchy in (reference, fast):
        event_stream(hierarchy, warmup, owner=0)
        # Every level missed on each address's first access, so these
        # sets were all touched by the warm-up.
        for level in hierarchy.levels:
            for address, _ in warmup[::50]:
                level.sets[level.set_index(address)].randomize_policy_state()
    assert event_stream(reference, rest, owner=0) == event_stream(fast, rest, owner=0)
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


def test_batched_loop_matches_generic_loop():
    """run_trace's specialised SoA loop equals the per-access API."""
    trace = list(
        random_workload(num_accesses=10_000, working_set_lines=2048, seed=7)
    )
    via_batch = make_xeon_hierarchy(rng=random.Random(3), engine="fast")
    via_generic = make_xeon_hierarchy(rng=random.Random(3), engine="fast")
    batched = run_trace(via_batch, trace, owner=1)
    events = event_stream(via_generic, trace, owner=1)
    assert batched.hit_levels == [event[0] for event in events]
    assert batched.latencies == [event[1] for event in events]
    assert batched.dirty_evictions == [event[2] for event in events]
    assert_state_identical(via_batch, via_generic)
    assert via_batch.stats.snapshot() == via_generic.stats.snapshot()


def test_flush_parity():
    """clflush costs and after-states agree across engines."""
    trace = list(random_workload(num_accesses=2_000, seed=11))
    reference, fast = build_pair("tree-plru")
    run_trace(reference, trace, owner=0)
    run_trace(fast, trace, owner=0)
    addresses = sorted({address for address, _ in trace})[:200]
    costs_ref = [reference.flush(address, owner=0) for address in addresses]
    costs_fast = [fast.flush(address, owner=0) for address in addresses]
    assert costs_ref == costs_fast
    assert_state_identical(reference, fast)


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

    The emission sites live in the shared hierarchy walk, so this holds
    by construction for the generic path — and enabling telemetry forces
    run_trace off the specialised SoA loop, so the batched API is covered
    too.  NamedTuple equality compares every field of every event.
    """
    from repro.telemetry import EventKind, TelemetryBus, TraceRecorder

    trace = list(
        random_workload(
            num_accesses=4_000,
            working_set_lines=1024,
            write_ratio=0.3,
            seed=SEED,
        )
    )
    reference, fast = build_pair(policy)
    recorders = {}
    for name, hierarchy in (("reference", reference), ("fast", fast)):
        recorder = TraceRecorder(capacity=None)
        hierarchy.attach_telemetry(TelemetryBus()).subscribe(recorder)
        recorders[name] = recorder
    run_trace(reference, trace, owner=0)
    run_trace(fast, trace, owner=0)
    flushed = sorted({address for address, _ in trace})[:64]
    for address in flushed:
        reference.flush(address, owner=0)
        fast.flush(address, owner=0)

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


#: ``trace_sweep`` at quick profile, seed 0.  The zero L1 hit rate is
#: right: the receiver cycles 10-line replacement sets through one 8-way
#: LRU set, so every L1 access misses.
TRACE_SWEEP_ROWS = [
    ["replicas", "16"],
    ["accesses per replica", "588"],
    ["L1 hit rate (mean)", "0.0000"],
    ["latency/access (mean cycles)", "22.002"],
    ["dirty evictions per replica (mean)", "92.00"],
    ["sweep fingerprint", "54fb4c56"],
]
TRACE_SWEEP_SERIES = {
    "dirty_evictions": [
        80, 64, 80, 88, 108, 104, 88, 96, 100, 88, 100, 112, 76, 88, 104, 96,
    ],
    "l1_hit_rate": [0.0] * 16,
}


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_trace_sweep_pinned(engine):
    """The seed sweep's rows and series are pinned on every engine."""
    from repro.experiments.profiles import QUICK
    from repro.experiments.registry import run_experiment

    result = run_experiment(
        "trace_sweep", profile=QUICK.with_engine(engine), seed=0
    )
    assert result.rows == TRACE_SWEEP_ROWS
    assert result.series == TRACE_SWEEP_SERIES


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
