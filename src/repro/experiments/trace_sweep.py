"""Seed-sweep replay statistics over the paper's hierarchy.

Every headline number in the paper is a statistic over many independent
replays of one cache geometry (Fig 6-8 sweep seeds, Tables 4-7 average
trials, the Section 7 detector is tuned on seeded traces).  This
experiment distils that shape: replay ``replicas`` fig6-style sender
traces, one seed each, through the paper's Xeon E5-2650 hierarchy and
report aggregate hit/latency/dirty-eviction statistics.

Each seed replays on its own hierarchy, built by the selected engine.
The reported result is bit-identical on every engine, so this experiment
doubles as an end-to-end engine cross-check: any divergence in any
replica's stream changes the sweep fingerprint.
"""

from __future__ import annotations

import random
import statistics
import zlib
from typing import List

from repro.cache.configs import HierarchyParams
from repro.engine.trace import TraceResult, run_trace
from repro.engine.workloads import fig6_workload
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile

EXPERIMENT_ID = "trace_sweep"

#: Per-replica seed stride (coprime to the counts profiles produce).
SEED_STRIDE = 1009


def _sweep(
    params: HierarchyParams,
    seeds: List[int],
    traces: List[list],
) -> List[TraceResult]:
    """Replay every (seed, trace) pair on a fresh hierarchy."""
    return [
        run_trace(params.build(rng=random.Random(seed)), trace)
        for seed, trace in zip(seeds, traces)
    ]


def run(
    *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Sweep seeded fig6-style replays over the paper's hierarchy."""
    profile = resolve_profile(profile)
    replicas = profile.count(quick=16, full=96)
    symbols = profile.count(quick=48, full=160)

    params = HierarchyParams.xeon()
    seeds = [seed * SEED_STRIDE + index for index in range(replicas)]
    traces = [
        list(fig6_workload(num_symbols=symbols, seed=run_seed))
        for run_seed in seeds
    ]
    results = _sweep(params, seeds, traces)

    hit_rates = [res.l1_hits / res.accesses for res in results]
    latencies = [res.total_latency / res.accesses for res in results]
    dirty = [res.dirty_eviction_count for res in results]
    # One digest over every replica's fingerprint: any engine divergence
    # anywhere in the sweep changes it.
    digest = zlib.crc32(
        repr([res.fingerprint() for res in results]).encode("ascii")
    )

    rows: List[List[object]] = [
        ["replicas", str(replicas)],
        ["accesses per replica", str(results[0].accesses)],
        ["L1 hit rate (mean)", f"{statistics.fmean(hit_rates):.4f}"],
        ["latency/access (mean cycles)", f"{statistics.fmean(latencies):.3f}"],
        ["dirty evictions per replica (mean)", f"{statistics.fmean(dirty):.2f}"],
        ["sweep fingerprint", f"{digest:08x}"],
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Seed-sweep replay statistics on the Xeon E5-2650 hierarchy",
        paper_reference="Section 5 methodology (statistics over seeded trials)",
        columns=["metric", "value"],
        rows=rows,
        series={
            "l1_hit_rate": [round(rate, 6) for rate in hit_rates],
            "dirty_evictions": dirty,
        },
        params={
            "replicas": replicas,
            "symbols_per_trace": symbols,
            "seed": seed,
            "seed_stride": SEED_STRIDE,
            "geometry": "xeon-e5-2650",
        },
        notes=(
            "Every value here is engine-invariant: each seed replays on "
            "its own hierarchy, and the sweep fingerprint certifies the "
            "streams matched bit for bit."
        ),
    )
