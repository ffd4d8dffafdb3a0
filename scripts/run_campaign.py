#!/usr/bin/env python
"""Drive a sweep campaign through the job scheduler, one job per point.

Loads a ``wb_ber_sweep`` scenario from the committed ``scenarios/`` zoo
(default: ``campaign-ts-sweep``), expands it with
:func:`repro.scenario.zoo.expand_campaign` into one single-period child
spec per sweep point, and submits every child to the experiment service
as an inline declarative scenario job.  Each point is computed,
memoised and served under its own canonical content address — a second
run of this script is answered entirely from the store.

By default the script boots a private in-process server on an ephemeral
port with a temporary store; point ``--url`` at a running
``python -m repro.service`` (and give it a persistent ``--store``) to
see cross-run memoisation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import threading
from typing import List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.scenario.zoo import expand_campaign, load_spec_file  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--campaign", default=None, metavar="FILE",
                        help="campaign spec file (default: "
                             "scenarios/campaign-ts-sweep.json)")
    parser.add_argument("--url", default=None,
                        help="submit to a running service instead of "
                             "booting one in-process")
    parser.add_argument("--profile", default="quick",
                        help="run profile (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2,
                        help="scheduler workers for the in-process server")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the campaign report as JSON")
    return parser.parse_args(argv)


def run_campaign(client: ServiceClient, args) -> dict:
    campaign_path = args.campaign or str(
        REPO_ROOT / "scenarios" / "campaign-ts-sweep.json"
    )
    campaign = load_spec_file(campaign_path)
    children = expand_campaign(campaign)

    # Submit the whole fan-out first, then wait: points queue behind the
    # scheduler's priority heap and run on its worker pool.
    jobs = [
        client.submit_scenario(child, profile=args.profile, seed=args.seed)
        for child in children
    ]
    points = []
    for child, job in zip(children, jobs):
        record = (
            job
            if job["state"] in ("done", "failed", "cancelled")
            else client.wait(str(job["job_id"]))
        )
        point = {
            "scenario": child.name,
            "period": child.params.periods[0],
            "state": record["state"],
            "source": record["source"],
            "result_key": record["result_key"],
        }
        if record["state"] == "done":
            result = client.result(str(record["result_key"]))
            point["rate_kbps"] = float(result.rows[0][1])
            point["ber"] = result.series["ber"][0]
        else:
            point["error"] = record["error"]
        points.append(point)
    scheduler = client.healthz()["scheduler"]
    return {
        "campaign": campaign.name,
        "profile": args.profile,
        "seed": args.seed,
        "points": points,
        "computations": scheduler["computations"],
        "store_served": scheduler["store_served"],
        "ok": all(point["state"] == "done" for point in points),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.url is not None:
        report = run_campaign(ServiceClient(args.url), args)
    else:
        from repro.service.http import ServiceApp, make_server
        from repro.service.store import ResultStore

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(pathlib.Path(tmp) / "store")
            app = ServiceApp(store, workers=args.workers, queue_depth=64)
            with app:
                server = make_server(app)
                threading.Thread(
                    target=server.serve_forever, daemon=True
                ).start()
                host, port = server.server_address[:2]
                try:
                    report = run_campaign(
                        ServiceClient(f"http://{host}:{port}"), args
                    )
                finally:
                    server.shutdown()
                    server.server_close()

    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"campaign {report['campaign']} "
              f"(profile={report['profile']}, seed={report['seed']}):")
        for point in report["points"]:
            if point["state"] == "done":
                print(f"  Ts={point['period']:>6}  "
                      f"rate={point['rate_kbps']:>7.0f} Kbps  "
                      f"BER={point['ber']:.2%}  [{point['source']}]")
            else:
                print(f"  Ts={point['period']:>6}  {point['state']}: "
                      f"{point['error']}")
        print(f"  computations={report['computations']} "
              f"store_served={report['store_served']}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
