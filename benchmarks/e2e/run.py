#!/usr/bin/env python3
"""End-to-end benchmark: the paper's experiments and the experiment service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fig6_fast --seed 0 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --seed 0            # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace    # per-layer numbers
    python3 benchmarks/e2e/run.py --smoke --trace     # 1 rep, 24 jobs

Every metric is printed as a ``workload metric value unit`` line; timings
add their quartiles and sample count.  ``OUT/report-<workload>.json`` holds
the full report, ``OUT/trace-<workload>.json`` the spans of a traced run.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json,
or its ``per_layer`` metrics with ``--trace``).  The exit status is 1 when
an output check fails and 2 when the source tree is missing.

Each experiment workload runs in fresh child processes (``child.py``).
The service workload starts the real server (``python -m repro.service``,
or ``child.py serve`` when traced) and drives it from this process with
two client threads, one persistent connection each.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import queue
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: Workload -> (experiment id, engine) for the experiment workloads.
EXPERIMENT_WORKLOADS = {
    "fig6_fast": ("fig6", "fast"),
    "defenses_ref": ("defenses", "reference"),
    "online_detection_fast": ("online_detection", "fast"),
}
SERVICE_WORKLOAD = "service_mix"
WORKLOADS = tuple(EXPERIMENT_WORKLOADS) + (SERVICE_WORKLOAD,)

#: Fresh interpreters (or servers) timed for setup_s; the last one is the
#: process that then runs the measured work.
SETUP_SAMPLES = 5

#: The calib_s loop: iterations per pass, and passes (the median is kept).
CALIB_LOOPS = 1_000_000
CALIB_PASSES = 5

#: Experiments the service mix draws from: quick on the default engine,
#: 0.1 to 0.5 s each, together covering construction, the interleaver,
#: the walk, set ops, analysis and the WB channel.
SERVICE_EXPERIMENTS = ("table4", "fig7", "fig4", "sidechannel", "table2", "fig5")
#: One block of 12 lockstep rounds, one job per client per round.
#: FF = two fresh keys (computed, then stored), WW = two repeats of keys
#: at least four jobs back (served from the store), P = both clients
#: submit the same fresh key at once (one computes, the other coalesces).
#: Per block: 12 fresh (each experiment twice), 10 warm, 1 pair.
ROUND_PATTERN = ("FF", "FF", "WW", "FF", "P", "FF", "WW", "WW", "FF", "WW", "FF", "WW")
#: The experiments that share an FF round, heavy with light.  Every timed
#: cold job runs beside one fixed partner, so the mix of cold latencies is
#: the same for every seed; a job alone would take about half as long, and
#: mixing the two cases puts the median between two modes.  That is why
#: the computation of a P round, which runs alone, is not a timed cold job.
FRESH_PAIRS = (("sidechannel", "table4"), ("fig5", "fig7"), ("table2", "fig4"))
CLIENTS = 2
TRACE_JOBS = 80
SMOKE_JOBS = 24
#: Enough blocks for any run length the time budget allows.
MAX_BLOCKS = 60

LAYER_SHARES = {
    "cache.build": ("cache.build",),
    "cpu.smt": ("cpu.smt",),
    "cache.hierarchy": ("cache.hierarchy",),
    "cache.set.ops": ("cache.set.ops",),
    "telemetry": ("telemetry",),
    "analysis": ("analysis",),
    "channels.wb": ("channels.wb",),
    "runner": ("runner",),
    "service": ("service.http", "service.store.get", "service.store.put"),
    "experiment": ("experiment",),
}


class BenchError(RuntimeError):
    """A process of the benchmark misbehaved (crash, timeout, bad output)."""


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: Optional[List[float]] = None

    def describe(self) -> str:
        text = f"{self.value:.6g} {self.unit}"
        if self.samples is not None:
            q1, q3 = quartiles(self.samples)
            text += f" q1={q1:.6g} q3={q3:.6g} n={len(self.samples)}"
        return text

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"value": self.value, "unit": self.unit}
        if self.samples is not None:
            q1, q3 = quartiles(self.samples)
            data.update(median=self.value, q1=q1, q3=q3, n=len(self.samples))
        return data


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timing(samples: Sequence[float], unit: str = "s") -> Metric:
    return Metric(statistics.median(samples), unit, list(samples))


def p90(samples: Sequence[float]) -> Optional[Metric]:
    """90th percentile, only with at least ten samples beyond it."""
    if len(samples) < 100:
        return None
    return Metric(statistics.quantiles(samples, n=10)[8], "s")


def end_to_end(setup_s: Sequence[float], peak_rss_mb: float) -> Dict[str, Metric]:
    """The gated metrics; every workload reports both."""
    return {"setup_s": timing(setup_s), "peak_rss_mb": Metric(peak_rss_mb, "MB")}


def throughput(completed: int, phase_s: float) -> Metric:
    """Units finished per second of the measured phase.

    Like ``wall_s`` it is a diagnostic: on a shared host, raw wall-clock
    readings of whole 30-s runs drift by more than a 0.10 bound.
    """
    return Metric(completed / phase_s, "1/s")


def calib_seconds() -> float:
    """Median time of a fixed pure-Python loop; a host-speed reading.

    It runs before a workload, with no ``repro`` code, and is printed
    beside the metrics so that host drift can be told from a regression.
    """
    passes = []
    for _ in range(CALIB_PASSES):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_LOOPS):
            total += i * i % 7
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


@dataclass
class WorkloadResult:
    name: str
    calib_s: float = 0.0
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    diagnostics: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Raw per-job records of the untraced service phase.
    jobs: List[Dict[str, object]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def warn(self, message: Optional[str]) -> None:
        if message:
            self.warnings.append(message)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _name, ok, _detail in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "calib_s": self.calib_s,
            "end_to_end": {k: m.to_dict() for k, m in self.end_to_end.items()},
            "diagnostics": {k: m.to_dict() for k, m in self.diagnostics.items()},
            "per_layer": {k: m.to_dict() for k, m in self.per_layer.items()},
            "counts": self.counts,
            "checks": [
                {"check": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "jobs": self.jobs,
            "warnings": self.warnings,
        }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from {proc.args[1:3]} within {timeout:.0f} s")
    return proc.stdout.readline()


def stop(proc: subprocess.Popen, sig: Optional[int] = None, timeout: float = 60) -> None:
    """Signal ``proc`` (if given a signal), wait for it, kill if it hangs."""
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class ExperimentChild:
    """``child.py experiment``; ``setup_s`` is spawn -> READY."""

    def __init__(self, argv: Sequence[str]) -> None:
        started_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "experiment", *argv],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        try:
            line = read_line(self.proc, 120)
        except BaseException:
            stop(self.proc, signal.SIGKILL)
            raise
        self.setup_s = (time.perf_counter_ns() - started_ns) / 1e9
        if line.strip() != "READY":
            stop(self.proc, signal.SIGKILL)
            raise BenchError(f"experiment child failed before READY: {line!r}")

    def finish(self, timeout: float) -> str:
        """Wait for the child to exit cleanly; returns the rest of its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop(self.proc, signal.SIGKILL)
            raise BenchError(f"experiment child exceeded {timeout:.0f} s")
        if self.proc.returncode != 0:
            raise BenchError(f"experiment child exited {self.proc.returncode}")
        return out

    def report(self, timeout: float) -> Dict[str, object]:
        lines = self.finish(timeout).strip().splitlines()
        if not lines:
            raise BenchError("experiment child printed no report")
        return json.loads(lines[-1])


class Server:
    """A service process; ``setup_s`` is spawn -> ``/healthz`` 200.

    Its stderr goes to ``stderr_path``, quoted when the server fails.
    """

    def __init__(self, argv: Sequence[str], stderr_path: Path) -> None:
        self.stderr_path = stderr_path
        started_ns = time.perf_counter_ns()
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=subprocess.PIPE, stderr=stderr, text=True,
                env=child_env(), cwd=ROOT,
            )
        try:
            line = read_line(self.proc, 120)
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match is None:
                raise BenchError(f"server did not start: {line!r} {self.stderr_tail()}")
            self.port = int(match.group(1))
            status, _body = http_get(self.port, "/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            stop(self.proc, signal.SIGKILL)
            raise
        self.setup_s = (time.perf_counter_ns() - started_ns) / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("VmHWM missing from the server's /proc status")

    def stop(self) -> Optional[str]:
        """SIGTERM drains the server; a traced server then writes its trace.

        Returns a description of an unclean exit, else None.  The jobs
        are already checked by then, so the caller reports it as a warning.
        """
        stop(self.proc, signal.SIGTERM)
        if self.proc.returncode == 0:
            return None
        return f"server exited {self.proc.returncode}: {self.stderr_tail()}"

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8")[-2000:]


def http_get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def cli_server(store: Path) -> Server:
    return Server([
        "-m", "repro.service", "--host", "127.0.0.1", "--port", "0",
        "--store", str(store), "--quiet",
    ], store.with_suffix(".stderr"))


# ----------------------------------------------------------------------
# Experiment workloads
# ----------------------------------------------------------------------
def run_experiment_workload(result: WorkloadResult, args, out: Path) -> None:
    """Run the workload's child processes and check their results."""
    experiment, engine = EXPERIMENT_WORKLOADS[result.name]
    base = ["--experiment", experiment, "--engine", engine, "--seed", str(args.seed)]
    setup: List[float] = []
    if not (args.trace or args.smoke):
        for _ in range(SETUP_SAMPLES - 1):
            child = ExperimentChild(base + ["--setup-only"])
            setup.append(child.setup_s)
            child.finish(timeout=60)
    trace_path = out / f"trace-{result.name}.json"
    if args.trace:
        extra = ["--trace-out", str(trace_path), "--workload", result.name]
    else:
        max_reps = 1 if args.smoke else 1000
        extra = ["--seconds", str(args.seconds), "--max-reps", str(max_reps)]
    child = ExperimentChild(base + extra)
    setup.append(child.setup_s)
    report = child.report(timeout=args.seconds + 90.0)

    reps = report["reps"]
    work = [rep["wall_s"] for rep in reps]
    digests = [rep["digest"] for rep in reps]
    if args.trace:
        digests.append(report["traced"]["digest"])
    result.attempted = len(digests)
    result.end_to_end = end_to_end(setup, report["peak_rss_mb"])
    result.diagnostics = {"wall_s": timing(work), "jobs_per_s": throughput(len(work), sum(work))}
    result.check(
        "every rep gives the same result",
        len(set(digests)) == 1,
        f"{len(set(digests))} distinct digests over {len(digests)} runs",
    )
    if args.seed == 0:
        golden = GOLDEN / f"{experiment}.quick-seed0.json"
        result.check(
            f"seed-0 result equals {golden.relative_to(ROOT)}",
            golden.is_file() and sha256(golden.read_bytes()) == digests[0],
        )
    if args.trace:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        derive_per_layer(
            result, trace, untraced_wall=reps[0]["wall_s"], traced_wall=report["traced"]["wall_s"]
        )


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    experiment_id: str
    seed: int
    #: "computed", "store" or "pair" (one computed, one coalesced).
    expect: str


@dataclass
class Outcome:
    job: Job
    status: int = 0
    record: Dict[str, object] = field(default_factory=dict)
    #: ``POST /jobs`` sent -> its reply read.
    latency_s: float = 0.0
    digest: Optional[str] = None
    error: str = ""

    @property
    def done(self) -> bool:
        return self.status == 200 and self.record.get("state") == "done"

    @property
    def source(self) -> Optional[str]:
        return self.record.get("source") if self.done else None


def plan_service_blocks(seed: int, blocks: int) -> List[List[Tuple[Job, ...]]]:
    """The seeded job list, as blocks of lockstep rounds.

    The seed picks the job seeds of fresh keys, the order of the FF pairs,
    and which earlier key each warm job repeats.  The block layout and the
    pairs are fixed, so every seed has the same mix.
    """
    rng = random.Random(f"service_mix/{seed}")
    used = set()
    history: List[Job] = []
    plan = []

    def fresh(experiment_id: str, expect: str) -> Job:
        while True:
            job = Job(experiment_id, rng.randrange(1, 2**31), expect)
            if (job.experiment_id, job.seed) not in used:
                used.add((job.experiment_id, job.seed))
                return job

    for block_index in range(blocks):
        pairs = [rng.sample(pair, len(pair)) for pair in FRESH_PAIRS * 2]
        rng.shuffle(pairs)
        rounds = []
        for kind in ROUND_PATTERN:
            if kind == "P":
                job = fresh(SERVICE_EXPERIMENTS[block_index % len(SERVICE_EXPERIMENTS)], "pair")
                jobs = (job, job)
            elif kind == "FF":
                jobs = tuple(fresh(experiment_id, "computed") for experiment_id in pairs.pop())
            else:
                jobs = []
                for _ in kind:
                    # Keys at least four jobs back, all in finished rounds.
                    repeat = rng.choice(history[: len(history) + len(jobs) - 3])
                    jobs.append(Job(repeat.experiment_id, repeat.seed, "store"))
                jobs = tuple(jobs)
            history.extend(jobs)
            rounds.append(jobs)
        plan.append(rounds)
    return plan


class Client(threading.Thread):
    """One closed-loop client with one persistent connection."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.inbox: "queue.Queue[Optional[Job]]" = queue.Queue()
        self.outbox: "queue.Queue[Outcome]" = queue.Queue()

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=90)
        try:
            while True:
                job = self.inbox.get()
                if job is None:
                    return
                outcome = Outcome(job)
                try:
                    self._submit(conn, outcome)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    outcome.error = repr(exc)
                    conn.close()
                self.outbox.put(outcome)
        finally:
            conn.close()

    @staticmethod
    def _submit(conn: http.client.HTTPConnection, outcome: Outcome) -> None:
        body = json.dumps({
            "experiment_id": outcome.job.experiment_id,
            "profile": "quick",
            "seed": outcome.job.seed,
            "wait": True,
        }).encode("utf-8")
        started_ns = time.perf_counter_ns()
        conn.request("POST", "/jobs", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        outcome.latency_s = (time.perf_counter_ns() - started_ns) / 1e9
        outcome.status = response.status
        outcome.record = json.loads(payload)
        if outcome.done:
            conn.request("GET", f"/results/{outcome.record['result_key']}")
            response = conn.getresponse()
            blob = response.read()
            if response.status == 200:
                outcome.digest = sha256(blob)


def drive_service(
    port: int, blocks: List[List[Tuple[Job, ...]]], seconds: Optional[float]
) -> Tuple[List[Outcome], float]:
    """Send the blocks in lockstep rounds; stop before a block that would
    overrun ``seconds`` (None: send everything).  Returns the outcomes
    and the seconds from the first job sent to the last one done."""
    clients = [Client(port) for _ in range(CLIENTS)]
    for client in clients:
        client.start()
    outcomes: List[Outcome] = []
    started_ns = time.perf_counter_ns()
    try:
        for index, rounds in enumerate(blocks):
            elapsed = (time.perf_counter_ns() - started_ns) / 1e9
            if seconds is not None and index and elapsed + elapsed / index > seconds:
                break
            for jobs in rounds:
                for client, job in zip(clients, jobs):
                    client.inbox.put(job)
                for client, _job in zip(clients, jobs):
                    try:
                        outcomes.append(client.outbox.get(timeout=120))
                    except queue.Empty:
                        raise BenchError("a client got no reply within 120 s") from None
        phase_s = (time.perf_counter_ns() - started_ns) / 1e9
    finally:
        for client in clients:
            client.inbox.put(None)
        for client in clients:
            client.join(timeout=60)
    return outcomes, phase_s


def check_outcomes(result: WorkloadResult, outcomes: List[Outcome], label: str) -> None:
    """Every job done, with the planned source and consistent bytes."""
    failed = [o for o in outcomes if not o.done or o.digest is None]
    result.attempted += len(outcomes)
    result.failed += len(failed)
    result.check(
        f"{label}: every job done and its result fetched",
        not failed,
        "; ".join(f"{o.job}: {o.status} {o.error or o.record}" for o in failed[:3]),
    )
    wrong = []
    pairs: Dict[Tuple[str, int], List[str]] = {}
    for outcome in outcomes:
        if outcome.job.expect == "pair":
            key = (outcome.job.experiment_id, outcome.job.seed)
            pairs.setdefault(key, []).append(outcome.source)
        elif outcome.source != outcome.job.expect:
            wrong.append(f"{outcome.job}: {outcome.source}")
    for key, sources in pairs.items():
        if sorted(sources) != ["coalesced", "computed"]:
            wrong.append(f"pair {key}: {sources}")
    result.check(f"{label}: computed / store / coalesced as planned", not wrong, "; ".join(wrong[:3]))
    digests: Dict[str, set] = {}
    for outcome in outcomes:
        if outcome.digest is not None:
            digests.setdefault(outcome.record["result_key"], set()).add(outcome.digest)
    split = [key for key, seen in digests.items() if len(seen) > 1]
    result.check(f"{label}: GET /results bytes identical per key", not split, ", ".join(split[:3]))


def spot_check(result: WorkloadResult, outcomes: List[Outcome]) -> None:
    """One key per experiment against an in-process run_experiment."""
    from repro.experiments import run_experiment

    checked = set()
    for outcome in outcomes:
        job = outcome.job
        if job.experiment_id in checked or outcome.digest is None:
            continue
        checked.add(job.experiment_id)
        local = run_experiment(job.experiment_id, profile="quick", seed=job.seed)
        result.check(
            f"stored {job.experiment_id} seed {job.seed} equals run_experiment",
            sha256(local.to_json().encode("utf-8")) == outcome.digest,
        )


def source_counts(outcomes: List[Outcome]) -> Dict[str, int]:
    counts = {"jobs.computed": 0, "jobs.store": 0, "jobs.coalesced": 0}
    for outcome in outcomes:
        if outcome.source is not None:
            counts[f"jobs.{outcome.source}"] += 1
    return counts


def run_service_workload(result: WorkloadResult, args, out: Path) -> None:
    """Start servers, drive the job mix, check and time the results."""
    store_root = out / "stores"
    shutil.rmtree(store_root, ignore_errors=True)
    store_root.mkdir(parents=True)
    stores = (store_root / f"store-{n}" for n in itertools.count())
    fixed_jobs = SMOKE_JOBS if args.smoke else TRACE_JOBS if args.trace else None
    if fixed_jobs is None:
        blocks = plan_service_blocks(args.seed, MAX_BLOCKS)
    else:
        per_block = len(ROUND_PATTERN)
        rounds = [r for block in plan_service_blocks(args.seed, fixed_jobs // (2 * per_block) + 1) for r in block]
        blocks = [rounds[: fixed_jobs // CLIENTS]]
    try:
        setup: List[float] = []
        if not (args.trace or args.smoke):
            for _ in range(SETUP_SAMPLES - 1):
                server = cli_server(next(stores))
                setup.append(server.setup_s)
                result.warn(server.stop())
        server = cli_server(next(stores))
        try:
            setup.append(server.setup_s)
            outcomes, phase_s = drive_service(server.port, blocks, None if fixed_jobs else args.seconds)
            rss = server.peak_rss_mb()
        finally:
            result.warn(server.stop())
        check_outcomes(result, outcomes, "untraced")
        spot_check(result, outcomes)
        result.jobs = [
            {
                "experiment_id": o.job.experiment_id,
                "seed": o.job.seed,
                "expect": o.job.expect,
                "source": o.source,
                "latency_s": o.latency_s,
                "wall_seconds": o.record.get("wall_seconds"),
            }
            for o in outcomes
        ]

        # Cold jobs computed beside their FF partner; a P round's
        # computation runs alone and is left out (see FRESH_PAIRS).
        timed = [o for o in outcomes if o.source == "computed" and o.job.expect == "computed"]
        cold = [o.latency_s for o in timed]
        warm = [o.latency_s for o in outcomes if o.source == "store"]
        completed = sum(1 for o in outcomes if o.done)
        result.end_to_end = end_to_end(setup, rss)
        diagnostics = {
            "jobs_per_s": throughput(completed, phase_s),
            "cold_p50_s": timing(cold),
            "cold_p90_s": p90(cold),
            "warm_p50_s": timing(warm),
            "warm_p90_s": p90(warm),
            "overhead_p50_s": timing([o.latency_s - float(o.record["wall_seconds"]) for o in timed]),
            "failed_ratio": Metric(result.failed / max(1, result.attempted), "ratio"),
        }
        result.diagnostics = {k: m for k, m in diagnostics.items() if m is not None}
        if not args.trace:
            return

        trace_path = out / f"trace-{result.name}.json"
        store = next(stores)
        server = Server([
            str(HERE / "child.py"), "serve", "--store", str(store),
            "--trace-out", str(trace_path), "--workload", result.name,
        ], store.with_suffix(".stderr"))
        try:
            traced, traced_phase_s = drive_service(server.port, blocks, None)
        finally:
            result.warn(server.stop())
        check_outcomes(result, traced, "traced")
        result.check(
            "traced and untraced runs served the same sources",
            source_counts(traced) == source_counts(outcomes),
        )
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        derive_per_layer(
            result, trace, untraced_wall=phase_s, traced_wall=traced_phase_s
        )
        layer = result.per_layer
        layer["runner.retries.count"] = Metric(
            sum(int(o.record["attempts"]) - 1 for o in traced if o.source == "computed"), "count"
        )
        layer["service.overhead.p50_s"] = result.diagnostics["overhead_p50_s"]
        sources = source_counts(traced)
        layer["service.store_served_ratio"] = Metric(sources["jobs.store"] / len(traced), "ratio")
        layer["service.coalesced_ratio"] = Metric(sources["jobs.coalesced"] / len(traced), "ratio")
        result.counts["runner.retries.count"] = int(layer["runner.retries.count"].value)
        result.counts.update(sources)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


# ----------------------------------------------------------------------
# Per-layer metrics from a trace
# ----------------------------------------------------------------------
def derive_per_layer(
    result: WorkloadResult, trace: Dict, untraced_wall: float, traced_wall: float
) -> None:
    counts: Dict[str, int] = trace["counts"]
    self_s: Dict[str, float] = trace["self_s"]
    sets = trace["sets"]
    m: Dict[str, Metric] = {}

    def count(name: str, key: str) -> None:
        m[name] = Metric(counts[key], "count")

    def self_time(name: str, layer: str) -> None:
        m[name] = Metric(self_s[layer], "s")

    count("cache.build.count", "cache.build")
    self_time("cache.build.self_s", "cache.build")
    count("cache.set.alloc.count", "cache.set.alloc")
    count("rng.derive.count", "rng.derive")
    m["cache.build.sets_touched_ratio"] = Metric(
        sets["touched"] / sets["declared"] if sets["declared"] else 0.0, "ratio"
    )
    m["cache.build.sets_declared.count"] = Metric(sets["declared"], "count")
    count("cpu.smt.run.count", "cpu.smt.run")
    self_time("cpu.smt.self_s", "cpu.smt")
    count("cache.hierarchy.access.count", "cache.hierarchy.access")
    count("cache.hierarchy.flush.count", "cache.hierarchy.flush")
    self_time("cache.hierarchy.access.self_s", "cache.hierarchy")
    accesses = counts["cache.hierarchy.access"]
    m["sim.ns_per_access"] = Metric(untraced_wall / accesses * 1e9 if accesses else 0.0, "ns")
    count("cache.set.ops.count", "cache.set.ops")
    self_time("cache.set.ops.self_s", "cache.set.ops")
    count("telemetry.emit.count", "telemetry.emit")
    self_time("telemetry.emit.self_s", "telemetry")
    count("analysis.count", "analysis")
    self_time("analysis.self_s", "analysis")
    count("channels.wb.run.count", "channels.wb.run")
    count("channels.wb.calibrate.count", "channels.wb.calibrate")
    if result.name == SERVICE_WORKLOAD:
        count("runner.execute.count", "runner.execute")
        self_time("runner.execute.self_s", "runner")
        count("service.store.get.count", "service.store.get")
        self_time("service.store.get.self_s", "service.store.get")
        count("service.store.put.count", "service.store.put")
        self_time("service.store.put.self_s", "service.store.put")
        count("service.http.count", "service.http")
        self_time("service.http.self_s", "service.http")
    for share, layers in LAYER_SHARES.items():
        m[f"{share}.share"] = Metric(sum(self_s[layer] for layer in layers) / traced_wall, "ratio")
    m["trace.overhead_ratio"] = Metric(traced_wall / untraced_wall, "ratio")
    result.per_layer = m
    result.counts = {
        name: int(metric.value) for name, metric in m.items() if metric.unit == "count"
    }

    layer_map = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    for layer in layer_map:
        calls = counts[layer["count"]]
        if result.name in layer["expected_on"]:
            result.check(f"trace: {layer['layer']} recorded calls", calls > 0, f"{calls} calls")
        if result.name in layer.get("expected_zero_on", ()):
            result.check(f"trace: {layer['layer']} idle", calls == 0, f"{calls} calls")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def print_result(result: WorkloadResult) -> None:
    name = result.name
    print(f"{name} calib_s {result.calib_s:.6g} s diagnostic "
          f"(host speed: a fixed pure-Python loop timed before the workload)")
    for section in (result.end_to_end, result.diagnostics, result.per_layer):
        for metric_name, metric in section.items():
            print(f"{name} {metric_name} {metric.describe()}")
    for check, ok, detail in result.checks:
        if not ok:
            print(f"{name} CHECK FAILED: {check} {detail}", file=sys.stderr)
    for warning in result.warnings:
        print(f"{name} WARNING: {warning}", file=sys.stderr)
    print(f"{name} checks {sum(ok for _c, ok, _d in result.checks)}/{len(result.checks)} passed")


def run_workload(name: str, args, out: Path) -> WorkloadResult:
    result = WorkloadResult(name, calib_s=calib_seconds())
    try:
        if name == SERVICE_WORKLOAD:
            run_service_workload(result, args, out)
        else:
            run_experiment_workload(result, args, out)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        result.attempted = max(result.attempted, 1)
        result.failed = max(result.failed, 1)
        result.check("workload ran to completion", False, repr(exc))
    (out / f"report-{name}.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result


def parse_args(argv: Optional[Sequence[str]], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds,
                        help="measured time per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: one untraced and one traced rep "
                             f"(service: the first {TRACE_JOBS} jobs)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"one rep per experiment, {SMOKE_JOBS} service jobs")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_e2e",
                        help="reports and traces (default: %(default)s)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not benchmark_file.is_file():
        print(f"error: {SRC / 'repro'} and {benchmark_file} are required; "
              "run from a full checkout", file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_file.read_text(encoding="utf-8"))
    args = parse_args(argv, benchmark["run_seconds"])
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args, args.out)
        print_result(result)
        results.append(result)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for result in results:
        prefix = "" if args.workload else f"{result.name}:"
        for spec in wanted:
            metric = result.per_layer.get(spec["name"]) if args.trace else result.end_to_end.get(spec["name"])
            if metric is not None:
                metrics[prefix + spec["name"]] = {"value": metric.value, "unit": spec["unit"]}
    correct = all(result.correct for result in results) and len(metrics) == len(wanted) * len(results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
