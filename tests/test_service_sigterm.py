"""A real ``python -m repro.service`` process drains and exits 0 on SIGTERM.

Only the standard library is imported here, so the test also runs as a
plain function call on an interpreter without pytest::

    python -c "import pathlib, sys, tempfile; sys.path[:0] = ['src', '.'];
    from tests.test_service_sigterm import test_sigterm_drains_a_real_server as t;
    t(pathlib.Path(tempfile.mkdtemp()))"
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import urllib.request

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def test_sigterm_drains_a_real_server(tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + inherited if inherited else ""),
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "--port", "0",
            "--store", str(tmp_path / "store"), "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = server.stdout.readline()
        port = re.search(r"listening on http://[\d.]+:(\d+)", banner).group(1)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/jobs",
            data=json.dumps(
                {"experiment_id": "table2", "profile": "quick", "wait": True}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            status = response.status
            job = json.loads(response.read().decode("utf-8"))
        assert (status, job["state"]) == (200, "done")
        server.send_signal(signal.SIGTERM)
        stdout, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, stderr
    assert "drained cleanly" in stdout
