"""Command-line entry point: ``python -m repro.experiments`` / ``wb-experiments``.

Examples::

    wb-experiments --list
    wb-experiments table2 fig6
    wb-experiments --all --profile quick
    wb-experiments --all --profile quick --jobs 4 --out results/
    wb-experiments fig6 --seeds 5 --jobs 4 --out sweep/
    wb-experiments online_detection --telemetry
    wb-experiments fig7 --profile quick --trace-out traces/
    wb-experiments --taxonomy

``--jobs N`` fans experiments out across worker processes (results are
bit-identical to a serial run; see :mod:`repro.runner`); ``--out DIR``
persists a schema-versioned JSON run manifest that
``examples/render_figures.py --results DIR`` can re-render without
recomputation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.run_summary import summarize_manifest
from repro.channels.taxonomy import render_table
from repro.engine.selection import available_engines
from repro.experiments.profiles import available_profiles, resolve_profile
from repro.experiments.registry import available_experiments
from repro.runner import ProgressPrinter, RunInterrupted, run_experiments


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="wb-experiments",
        description=(
            "Reproduce the tables and figures of 'Abusing Cache Line Dirty "
            "States to Leak Information in Commercial Processors' (HPCA'22)"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--profile",
        choices=available_profiles(),
        default=None,
        help="repetition-count profile: quick (CI-speed) or full (paper-scale)",
    )
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help=(
            "simulation engine: reference (object-per-line oracle) or fast "
            "(struct-of-arrays core); results are bit-identical"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = in-process serial; results are identical)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write a JSON run manifest (results + provenance) to DIR",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="seeds per experiment (shard 0 uses --seed; others are derived)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock budget (parallel runs only)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "stream cache events through a telemetry session per run "
            "(windowed counters + trace ring + profiler); the summary "
            "lands in the result params and run manifest"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help=(
            "export each run's retained event trace as DIR/<id>-seed<N>"
            ".jsonl (implies --telemetry; requires --jobs 1)"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="MANIFEST",
        default=None,
        help=(
            "resume from a prior (partial) run manifest: tasks already "
            "completed there are reused verbatim, everything else runs; "
            "the merged manifest is canonically identical to an "
            "uninterrupted run"
        ),
    )
    parser.add_argument(
        "--taxonomy",
        action="store_true",
        help="print the paper's Table 1 channel classification",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    if args.taxonomy:
        print(render_table())
        return 0

    profile = args.profile
    if profile is None:
        profile = "full"
    profile = resolve_profile(profile).with_engine(args.engine)
    if args.telemetry or args.trace_out is not None:
        profile = profile.with_telemetry(True)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.trace_out is not None:
        if args.jobs != 1:
            # Trace export rides the in-process session default config;
            # worker processes would not see it.
            print("--trace-out requires --jobs 1", file=sys.stderr)
            return 2
        from repro.telemetry.session import TelemetryConfig, configure

        configure(TelemetryConfig(trace_out=args.trace_out))
    if args.seeds < 1:
        print(f"--seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2

    requested = list(args.experiments)
    if args.all:
        requested = available_experiments()
    if not requested:
        parser.print_help()
        return 2

    unknown = [e for e in requested if e not in available_experiments()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available_experiments())}", file=sys.stderr)
        return 2

    total_tasks = len(requested) * args.seeds
    progress = ProgressPrinter() if (args.jobs > 1 or total_tasks > 1) else None
    try:
        manifest = run_experiments(
            requested,
            profile=profile,
            seed=args.seed,
            jobs=args.jobs,
            out_dir=args.out,
            timeout=args.timeout,
            seeds_per_experiment=args.seeds,
            progress=progress,
            resume_from=args.resume,
        )
    except RunInterrupted as exc:
        print("\ninterrupted", file=sys.stderr)
        if exc.manifest is not None and args.out is not None:
            done = sum(1 for entry in exc.manifest.entries if entry.ok)
            print(
                f"partial manifest ({done}/{len(exc.manifest.entries)} task(s) "
                f"done) written to {args.out}; resume with --resume "
                f"{args.out}",
                file=sys.stderr,
            )
        return 130

    for entry in manifest.entries:
        if entry.ok:
            print(entry.result.render())
            print(f"[{entry.task_id} finished in {entry.wall_seconds:.1f}s]")
        else:
            print(
                f"[{entry.task_id} {entry.status} after "
                f"{entry.wall_seconds:.1f}s: {_last_line(entry.error)}]",
                file=sys.stderr,
            )
        print()
    if len(manifest.entries) > 1:
        print(summarize_manifest(manifest))
        print()
    if args.out is not None:
        print(f"manifest written to {manifest.save(args.out)}")
    return 0 if manifest.ok else 1


def _last_line(text: Optional[str]) -> str:
    if not text:
        return "unknown error"
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown error"


if __name__ == "__main__":
    sys.exit(main())
