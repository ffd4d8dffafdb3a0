#!/usr/bin/env python3
"""Benchmark the fast struct-of-arrays engine against the reference core.

Replays the Figure 6 covert-channel workload and a mixed random workload
through both engines, verifies the result fingerprints are identical
(parity failure is a hard error), and reports the throughput ratio.
Writes ``BENCH_engine.json`` so the speedup is tracked in-repo.

Usage::

    python scripts/bench_engine.py                       # full measurement
    python scripts/bench_engine.py --quick               # CI smoke sizes
    python scripts/bench_engine.py --baseline BENCH_engine.json
        # additionally gate: fail if the fast/reference speedup dropped
        # more than --max-regression (default 30%) below the baseline

The regression gate compares *speedup ratios*, not absolute seconds:
both engines run on the same machine in a single invocation, so the
ratio is hardware-neutral and safe to compare against a committed
baseline measured elsewhere.

The fast engine is additionally timed with a telemetry bus attached but
disabled (``speedup_with_idle_bus``).  Telemetry is designed to be
zero-cost when off — a disabled bus keeps the specialised SoA loop
eligible — so this ratio must track ``speedup``; the gate fails if the
bus's mere presence starts costing throughput.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.configs import make_xeon_hierarchy
from repro.engine import fig6_workload, random_workload, run_trace

#: Workload builders keyed by name; each returns a list of (address, is_write).
WORKLOADS: Dict[str, Callable[[bool], List[Tuple[int, bool]]]] = {
    "fig6": lambda quick: fig6_workload(
        num_symbols=64 if quick else 1024, d=4, seed=0
    ),
    "random": lambda quick: list(
        random_workload(
            num_accesses=10_000 if quick else 200_000,
            working_set_lines=2048,
            write_ratio=0.3,
            seed=0,
        )
    ),
}

SCHEMA_VERSION = 4


#: The timed configurations, in the order each repeat runs them:
#: (engine, idle telemetry bus attached).
CONFIGS: Tuple[Tuple[str, bool], ...] = (
    ("reference", False),
    ("fast", False),
    ("fast", True),
)


def time_engine(
    engine: str,
    trace: List[Tuple[int, bool]],
    idle_bus: bool = False,
) -> Tuple[float, Tuple[int, int, int, int]]:
    """Wall time of one replay on a fresh hierarchy, and its fingerprint.

    ``idle_bus=True`` attaches a disabled telemetry bus first — the
    "merely present" configuration the overhead gate watches.  Caches
    build their sets on first touch; every set is built here, before the
    timer starts, so only the replay is timed.
    """
    hierarchy = make_xeon_hierarchy(rng=random.Random(0), engine=engine)
    if idle_bus:
        from repro.telemetry import TelemetryBus

        hierarchy.attach_telemetry(TelemetryBus(enabled=False))
    for level in hierarchy.levels:
        for _ in level.sets:
            pass
    start = time.perf_counter()
    result = run_trace(hierarchy, trace, owner=0)
    return time.perf_counter() - start, result.fingerprint()


def bench_workload(name: str, quick: bool, repeats: int) -> Dict[str, object]:
    """Measure one workload on both engines and check parity.

    Best-of-``repeats`` per configuration.  Each repeat times every
    configuration once, so host-speed drift during the run hits all of
    them alike instead of one sequential block.
    """
    trace = WORKLOADS[name](quick)
    best = {config: float("inf") for config in CONFIGS}
    fingerprints: Dict[Tuple[str, bool], Tuple[int, int, int, int]] = {}
    for _ in range(repeats):
        for config in CONFIGS:
            elapsed, current = time_engine(config[0], trace, idle_bus=config[1])
            best[config] = min(best[config], elapsed)
            if fingerprints.setdefault(config, current) != current:
                raise AssertionError(
                    f"{config[0]} engine is non-deterministic on repeats: "
                    f"{fingerprints[config]} != {current}"
                )
    ref_seconds, fast_seconds, idle_seconds = (best[config] for config in CONFIGS)
    ref_fp, fast_fp, idle_fp = (fingerprints[config] for config in CONFIGS)
    if ref_fp != fast_fp:
        raise AssertionError(
            f"PARITY FAILURE on workload {name!r}: "
            f"reference={ref_fp} fast={fast_fp}"
        )
    if idle_fp != fast_fp:
        raise AssertionError(
            f"PARITY FAILURE on workload {name!r}: an idle telemetry bus "
            f"changed the fast engine's results: {fast_fp} != {idle_fp}"
        )
    return {
        "workload": name,
        "accesses": len(trace),
        "fingerprint": list(ref_fp),
        "reference_seconds": round(ref_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "fast_idle_bus_seconds": round(idle_seconds, 6),
        "reference_accesses_per_second": round(len(trace) / ref_seconds),
        "fast_accesses_per_second": round(len(trace) / fast_seconds),
        "speedup": round(ref_seconds / fast_seconds, 3),
        "speedup_with_idle_bus": round(ref_seconds / idle_seconds, 3),
    }


def check_baseline(
    report: Dict[str, object], baseline_path: str, max_regression: float
) -> List[str]:
    """Speedup-ratio regression gate against a committed baseline."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_by_name = {
        entry["workload"]: entry for entry in baseline["workloads"]
    }
    failures = []
    for entry in report["workloads"]:
        name = entry["workload"]
        reference_entry = baseline_by_name.get(name)
        if reference_entry is None:
            continue
        floor = reference_entry["speedup"] * (1.0 - max_regression)
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x is more than "
                f"{max_regression:.0%} below the baseline "
                f"{reference_entry['speedup']:.2f}x (floor {floor:.2f}x)"
            )
        # The telemetry-off overhead guard: an idle bus must not erode
        # the speedup.  Gated against the *plain* baseline speedup so
        # schema-1 baselines (no idle-bus field) still enforce it.
        if entry["speedup_with_idle_bus"] < floor:
            failures.append(
                f"{name}: speedup with an idle telemetry bus "
                f"{entry['speedup_with_idle_bus']:.2f}x is more than "
                f"{max_regression:.0%} below the baseline "
                f"{reference_entry['speedup']:.2f}x (floor {floor:.2f}x) — "
                "the disabled bus is costing throughput"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trace sizes for CI smoke runs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per engine; best-of-N is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON report here (default BENCH_engine.json, "
        "suppressed in --quick runs unless given explicitly)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed BENCH_engine.json to gate speedup regressions against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRACTION",
        help="allowed fractional speedup drop vs the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "quick": args.quick,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "workloads": [],
    }
    for name in WORKLOADS:
        entry = bench_workload(name, args.quick, args.repeats)
        report["workloads"].append(entry)
        print(
            f"{name:>8}: {entry['accesses']:>7} accesses | "
            f"reference {entry['reference_seconds']:.3f}s | "
            f"fast {entry['fast_seconds']:.3f}s | "
            f"speedup {entry['speedup']:.2f}x "
            f"(idle bus {entry['speedup_with_idle_bus']:.2f}x, parity ok)"
        )

    out_path = args.out
    if out_path is None and not args.quick:
        out_path = "BENCH_engine.json"
    if out_path is not None:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {out_path}")

    if args.baseline is not None:
        failures = check_baseline(report, args.baseline, args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate ok (vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
