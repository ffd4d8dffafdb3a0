"""Smoke test of the end-to-end benchmark; about a minute, not part of tier 1.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --smoke --trace --seed 0`` (one rep per experiment workload,
24 service jobs) and checks that every metric named in BENCHMARK.json is
printed with its unit for every workload, that every output check passed,
and that the counts of simulated work equal the seed-0 counts recorded in
``baseline.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_trace_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--seed", "0",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0

    units = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4:
            units[(fields[0], fields[1])] = fields[3]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in benchmark["workloads"]:
        for spec in benchmark["end_to_end"] + benchmark["per_layer"]:
            assert units.get((workload["name"], spec["name"])) == spec["unit"], (
                workload["name"], spec["name"]
            )

    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    pinned = baseline["pinned_counts"]
    for workload, recorded in baseline["counts_seed0"]["smoke"].items():
        report = json.loads((tmp_path / f"report-{workload}.json").read_text(encoding="utf-8"))
        assert all(check["ok"] for check in report["checks"]), report["checks"]
        measured = {name: report["counts"][name] for name in pinned if name in recorded}
        assert measured == {name: recorded[name] for name in measured}, workload
