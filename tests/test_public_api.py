"""The package's top-level public API surface."""

import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import repro

#: Run in a fresh interpreter: prints the top-level modules that importing
#: the CLI registry and the service entry point loads from outside the
#: standard library.
_FOREIGN_IMPORTS_PROBE = """
import json, sys
before = set(sys.modules)
import repro.experiments.registry, repro.service.__main__
if hasattr(sys, "stdlib_module_names"):
    allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
    loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
    print(json.dumps(sorted(loaded - allowed)))
else:  # Python 3.9 has no stdlib list; check the one known offender.
    print(json.dumps(["numpy"] if "numpy" in sys.modules else []))
"""

#: Run in a fresh interpreter: imports the module named by ``argv[1]`` and
#: prints every ``repro`` module that the import loaded.
_REPRO_IMPORTS_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "repro")))
"""

#: Run in a fresh interpreter: the experiments named in ``argv`` start at
#: once, one thread each, so their modules are first imported concurrently;
#: prints, per experiment, whether the result equals a later serial run.
_CONCURRENT_FIRST_USE_PROBE = """
import json, sys, threading
from repro.experiments.registry import run_experiment
ids = sys.argv[1:]
sys.setswitchinterval(1e-5)  # interleave the threads' imports finely
start = threading.Barrier(len(ids))
results = {}
def run(experiment_id):
    start.wait()
    results[experiment_id] = run_experiment(experiment_id, profile="quick").to_json()
threads = [threading.Thread(target=run, args=(eid,)) for eid in ids]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
serial = {eid: run_experiment(eid, profile="quick").to_json() for eid in ids}
print(json.dumps({eid: results.get(eid) == serial[eid] for eid in ids}))
"""

#: Run in a fresh interpreter: a two-worker pool over a known and an
#: unknown experiment; prints whether the known experiment's module was
#: loaded before and after, and each entry's status and error.
_POOL_PARENT_IMPORT_PROBE = """
import json, sys
from repro.experiments.profiles import QUICK
from repro.runner.pool import execute_tasks
from repro.runner.sharding import TaskSpec
before = "repro.experiments.table2" in sys.modules
entries = execute_tasks(
    [TaskSpec("table2", "table2", 0, QUICK), TaskSpec("nope", "nope", 0, QUICK)],
    jobs=2,
)
print(json.dumps({
    "before": before,
    "after": "repro.experiments.table2" in sys.modules,
    "entries": {entry.task_id: [entry.status, entry.error] for entry in entries},
}))
"""

#: Module families that neither the threaded scheduler nor an in-process
#: run needs: each adds start-up time and peak memory to every server.
_SERVER_FREE_FAMILIES = (
    "asyncio", "concurrent.futures", "logging", "subprocess", "multiprocessing",
)

#: Modules a server that speaks plain HTTP has no use for: ``http.server``
#: and ``http.client`` load the ``email`` package and ``ssl`` (libssl and
#: libcrypto).
_TLS_AND_MAIL_MODULES = ("http.server", "http.client", "email", "ssl", "_ssl")

#: Run in a fresh interpreter: the service entry point's server answers
#: one quick ``table2`` job with ``wait: true`` from a temporary store,
#: asked over a raw socket so that the probe loads no HTTP client itself;
#: prints the reply and which of the modules named in ``argv`` it loaded.
_SERVICE_JOB_PROBE = """
import json, socket, sys, tempfile, threading
import repro.service.__main__
from repro.service.http import ServiceApp, make_server
from repro.service.store import ResultStore
body = json.dumps({"experiment_id": "table2", "profile": "quick", "wait": True})
request = ("POST /jobs HTTP/1.1\\r\\nConnection: close\\r\\n"
           "Content-Length: %d\\r\\n\\r\\n%s")
with tempfile.TemporaryDirectory() as tmp:
    with ServiceApp(ResultStore(tmp)) as app:
        server = make_server(app)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        with socket.create_connection(server.server_address[:2], timeout=60) as sock:
            sock.sendall((request % (len(body), body)).encode())
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
        server.shutdown()
        server.server_close()
head, _, payload = reply.partition(b"\\r\\n\\r\\n")
print(json.dumps({
    "status": int(head.split()[1]),
    "state": json.loads(payload)["state"],
    "loaded": [name for name in sys.argv[1:] if name in sys.modules],
}))
"""

#: Run in a fresh interpreter: one quick run of the experiment named by
#: ``argv[1]``; prints which of the modules named in ``argv[2:]`` it loaded.
_EXPERIMENT_PROBE = """
import json, sys
from repro.experiments.registry import run_experiment
run_experiment(sys.argv[1], profile="quick", seed=0)
print(json.dumps([name for name in sys.argv[2:] if name in sys.modules]))
"""

#: Run in a fresh interpreter: one task through the serial pool path;
#: prints its status and whether ``multiprocessing`` got imported.
_SERIAL_POOL_PROBE = """
import json, sys
from repro.experiments.profiles import QUICK
from repro.runner.pool import execute_tasks
from repro.runner.sharding import TaskSpec
(entry,) = execute_tasks([TaskSpec("table2", "table2", 0, QUICK)], jobs=1)
print(json.dumps([entry.status, "multiprocessing" in sys.modules]))
"""


def _run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter with this ``repro`` on the path."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    process = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout)


def _openssl_digest_modules():
    """``hashlib`` and OpenSSL's ``_hashlib``, where a built-in SHA-256
    (``_sha256``, or ``_sha2`` from 3.12) lets canonical digests avoid them."""
    builtin = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    return ("hashlib", "_hashlib") if builtin else ()


def _repro_modules_loaded_by(module):
    return _run_fresh(_REPRO_IMPORTS_PROBE, module)


def _experiment_modules():
    from repro.experiments.registry import available_experiments, experiment_runner

    return {
        experiment_runner(experiment_id).__module__
        for experiment_id in available_experiments()
    }


def _inside(loaded, *packages):
    """The loaded modules that belong to one of the named ``repro`` subpackages."""
    return [name for name in loaded if (name.split(".") + [""])[1] in packages]


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quick_channel_run_exported(self):
        result = repro.quick_channel_run(message_bits=32, seed=1)
        assert result.rate_kbps > 0

    def test_subpackage_all_names_resolve(self):
        # Package exports resolve on first access (repro._lazy), so a
        # name missing from its table only shows when someone reads it.
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
            if info.ispkg
        ]
        for module in packages:
            star = {}
            exec(f"from {module.__name__} import *", star)
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
                assert star[name] is getattr(module, name), f"{module.__name__}.{name}"


class TestDoctests:
    def test_units_doctests(self):
        import doctest

        import repro.common.units as units

        failures, _ = doctest.testmod(units)
        assert failures == 0

    def test_capacity_doctests(self):
        import doctest

        import repro.analysis.capacity as capacity

        failures, _ = doctest.testmod(capacity)
        assert failures == 0

    def test_bits_doctests(self):
        import doctest

        import repro.common.bits as bits

        failures, _ = doctest.testmod(bits)
        assert failures == 0


class TestImportHygiene:
    def test_entry_points_load_only_the_standard_library(self):
        # Every CLI run, runner worker and service process pays for these
        # imports at start-up, in time and in peak memory.
        assert _run_fresh(_FOREIGN_IMPORTS_PROBE) == []

    def test_import_repro_loads_only_the_export_helper(self):
        assert _repro_modules_loaded_by("repro") == ["repro", "repro._lazy"]

    def test_registry_loads_no_experiment_or_simulator(self):
        # Listing and validating ids (the CLI, the runner's plan) must not
        # pay for the experiments themselves.
        loaded = _repro_modules_loaded_by("repro.experiments.registry")
        assert _inside(
            loaded, "cache", "cpu", "channels", "scenario", "runner", "service"
        ) == []
        assert not set(loaded) & _experiment_modules()

    def test_service_entry_loads_no_experiment_or_simulator(self):
        # The server imports what a job needs when the job first runs.
        loaded = _repro_modules_loaded_by("repro.service.__main__")
        assert _inside(loaded, "cache", "cpu", "channels", "engine", "scenario") == []
        assert not set(loaded) & _experiment_modules()

    def test_served_job_loads_no_asyncio_or_process_machinery(self):
        # The scheduler runs on threads and the in-process path never
        # forks, so a server that computed a job has none of these.
        report = _run_fresh(_SERVICE_JOB_PROBE, *_SERVER_FREE_FAMILIES)
        assert (report["status"], report["state"]) == (200, "done")
        assert report["loaded"] == []

    def test_served_job_loads_no_http_client_tls_or_openssl_digest(self):
        # The HTTP layer parses requests itself and cache keys take the
        # built-in SHA-256, so a plain-HTTP server maps no libssl or
        # libcrypto.
        modules = _TLS_AND_MAIL_MODULES + _openssl_digest_modules()
        report = _run_fresh(_SERVICE_JOB_PROBE, *modules)
        assert (report["status"], report["state"]) == (200, "done")
        assert report["loaded"] == []

    def test_quick_experiment_loads_no_hashlib(self):
        # fig6 computes canonical digests; they take the built-in SHA-256.
        assert _run_fresh(_EXPERIMENT_PROBE, "fig6", *_openssl_digest_modules()) == []

    def test_serial_execution_loads_no_multiprocessing(self):
        assert _run_fresh(_SERIAL_POOL_PROBE) == ["ok", False]

    def test_concurrent_first_use_matches_serial(self):
        # The service's in-process workers import an experiment's modules
        # from worker threads the first time a job needs them.
        ids = ["fig4", "fig5", "fig7", "sidechannel", "table2", "table4"]
        assert _run_fresh(_CONCURRENT_FIRST_USE_PROBE, *ids) == dict.fromkeys(ids, True)

    def test_pool_imports_experiments_before_forking(self):
        # Workers inherit the module instead of importing it once per task;
        # an unknown id still fails in its own entry, not in the parent.
        report = _run_fresh(_POOL_PARENT_IMPORT_PROBE)
        assert not report["before"]
        assert report["after"]
        assert report["entries"]["table2"] == ["ok", None]
        status, error = report["entries"]["nope"]
        assert status == "failed"
        assert "ConfigurationError: unknown experiment 'nope'; available: " in error
