"""``python -m repro.service`` — run the experiment service.

Example::

    python -m repro.service --port 8321 --store results-store --workers 4
    curl -s -X POST localhost:8321/jobs \\
        -d '{"experiment_id": "fig6", "profile": "quick", "wait": true}'
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.errors import ReproError
from repro.service.fleet import FleetConfig
from repro.service.http import serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Serve experiments over HTTP with a content-addressed result "
            "store and a threaded job scheduler (memoised, deduplicated)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port, 0 for ephemeral (default: %(default)s)")
    parser.add_argument("--store", default="results-store", metavar="DIR",
                        help="result-store directory (default: %(default)s)")
    parser.add_argument("--capacity-mb", type=float, default=None,
                        metavar="MB",
                        help="LRU store size cap in MiB (default: unbounded)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent computations (default: %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="queued computations before 429 "
                             "(default: %(default)s)")
    parser.add_argument("--isolate", action="store_true",
                        help="run each computation in a worker process "
                             "(enables the runner's timeout and crash retry)")
    parser.add_argument("--window", type=int, default=64,
                        help="telemetry window size in submissions "
                             "(default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logging")
    fleet = parser.add_argument_group("fleet (distributed workers)")
    fleet.add_argument("--lease-ttl", type=float, default=10.0,
                       help="fleet lease TTL in seconds (default: %(default)s)")
    fleet.add_argument("--dead-letter-after", type=int, default=3,
                       help="quarantine a job after this many failed "
                            "leases (default: %(default)s)")
    fleet.add_argument("--min-workers", type=int, default=0,
                       help="shed load with 503 below this many live fleet "
                            "workers; 0 falls back to the in-process pool "
                            "(default: %(default)s)")
    fleet.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds SIGTERM waits for in-flight leases "
                            "(default: %(default)s)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    capacity_bytes = (
        None if args.capacity_mb is None
        else max(1, int(args.capacity_mb * 1024 * 1024))
    )
    try:
        serve(
            args.store,
            host=args.host,
            port=args.port,
            capacity_bytes=capacity_bytes,
            workers=args.workers,
            queue_depth=args.queue_depth,
            isolate=args.isolate,
            window=args.window,
            verbose=not args.quiet,
            fleet=FleetConfig(
                lease_ttl=args.lease_ttl,
                dead_letter_after=args.dead_letter_after,
                min_workers=args.min_workers,
            ),
            drain_timeout=args.drain_timeout,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
