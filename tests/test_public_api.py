"""The package's top-level public API surface."""

import json
import os
import pathlib
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
        import repro.analysis
        import repro.cache
        import repro.channels
        import repro.channels.wb
        import repro.defenses
        import repro.experiments
        import repro.mem
        import repro.noise
        import repro.replacement
        import repro.service
        import repro.sidechannel

        for module in (
            repro.analysis, repro.cache, repro.channels, repro.channels.wb,
            repro.defenses, repro.experiments, repro.mem, repro.noise,
            repro.replacement, repro.service, repro.sidechannel,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


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
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
        )
        process = subprocess.run(
            [sys.executable, "-c", _FOREIGN_IMPORTS_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        assert json.loads(process.stdout) == []
