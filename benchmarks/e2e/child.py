"""Processes the end-to-end benchmark spawns; one fresh interpreter each.

``child.py experiment`` imports ``repro``, runs a ``table4`` quick warm-up,
prints ``READY`` (the parent times spawn -> READY as set-up), then runs
the workload's experiment and prints one JSON report line::

    python child.py experiment --experiment fig6 --engine fast --seed 0 \\
        --seconds 30 [--setup-only] [--max-reps N] [--trace-out FILE --workload W]

Untraced, it repeats ``run_experiment`` while the next rep still fits in
``--seconds``.  With ``--trace-out`` it runs one untraced rep, installs
the timing wrappers, runs one traced rep and writes the trace file.

``child.py serve`` installs the timing wrappers and then calls the real
``repro.service.http.serve()`` with its defaults; SIGTERM drains the
server, after which the trace is written::

    python child.py serve --store DIR --trace-out FILE --workload W

Both expect ``src`` on ``PYTHONPATH``; the parent sets it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

from tracer import Tracer


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def result_digest(result) -> str:
    """SHA-256 of the result in the byte layout of ``tests/golden``."""
    text = result.to_json(indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def experiment_main(args: argparse.Namespace) -> int:
    # Called through the module attribute so that, once the tracer has
    # rebound it, the traced rep goes through the wrapper.
    from repro.experiments import registry
    from repro.experiments.profiles import RunProfile

    registry.run_experiment("table4", profile="quick", seed=0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    profile = RunProfile("quick", reduced=True, engine=args.engine)

    def rep():
        start_ns = time.perf_counter_ns()
        result = registry.run_experiment(args.experiment, profile=profile, seed=args.seed)
        wall_s = (time.perf_counter_ns() - start_ns) / 1e9
        return {"wall_s": wall_s, "digest": result_digest(result)}

    report = {"reps": [rep()]}
    if args.trace_out:
        report["peak_rss_mb"] = peak_rss_mb()
        tracer = Tracer(args.workload)
        tracer.install()
        report["traced"] = rep()
        tracer.dump(args.trace_out)
    else:
        reps = report["reps"]
        while len(reps) < args.max_reps:
            walls = [item["wall_s"] for item in reps]
            if sum(walls) + statistics.median(walls) > args.seconds:
                break
            reps.append(rep())
        report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report), flush=True)
    return 0


def serve_main(args: argparse.Namespace) -> int:
    tracer = Tracer(args.workload)
    tracer.install()
    from repro.service.http import serve

    serve(args.store, host="127.0.0.1", port=0, verbose=False)
    tracer.dump(args.trace_out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    experiment = commands.add_parser("experiment")
    experiment.add_argument("--experiment", required=True)
    experiment.add_argument("--engine", required=True)
    experiment.add_argument("--seed", type=int, required=True)
    experiment.add_argument("--seconds", type=float, default=0.0)
    experiment.add_argument("--max-reps", type=int, default=1)
    experiment.add_argument("--setup-only", action="store_true")
    experiment.add_argument("--trace-out")
    experiment.add_argument("--workload")
    server = commands.add_parser("serve")
    server.add_argument("--store", required=True)
    server.add_argument("--trace-out", required=True)
    server.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    main_of = {"experiment": experiment_main, "serve": serve_main}
    return main_of[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
