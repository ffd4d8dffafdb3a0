#!/usr/bin/env python
"""List the functions under ``src/repro`` that no product run calls.

Records every Python call made while it runs, in this process and in every
thread started here (``sys.setprofile`` and ``threading.setprofile``):

* every registered experiment, quick profile, seed 0, on both engines;
* ``wb-experiments --list``, ``--taxonomy`` and one ``--out`` run into a
  temporary directory;
* every example except ``defense_shootout.py`` (slow) and
  ``render_figures.py`` (writes figures);
* ``scripts/load_test_service.py --smoke`` and
  ``scripts/run_campaign.py --json``.

It then prints every function defined under ``src/repro`` that was never
called, with its size in lines, in three groups:

1. those whose name a file under ``src/`` (the ``lazy_exports(...)``
   export tables of package ``__init__`` files excluded), ``examples/`` or
   ``scripts/`` uses: a path the sweep did not take may still reach them;
2. those whose name only files under ``tests/`` use, or none, and that
   nobody has decided on yet: candidates for deletion;
3. those :data:`KEPT` keeps on purpose, each with its reason (public API,
   CI entry points, test oracles, accessors of live state).  A ``KEPT``
   key that names no function is reported as stale.

A function counts as named where code uses its name and, for a method,
its class's name too; definitions, annotations, ``__all__`` lists,
export tables and docstrings do not count.  Dunder methods always count as named (the
interpreter calls them).  Fleet workers run in subprocesses, so
``service/worker.py`` and ``service/fleet.py`` are listed as not swept
instead of as dead.

Uses only the standard library and writes nothing into the repository.
The sweep takes about 5 minutes on a shared 2-vCPU VM (CPython 3.11).
It exits 1 when a step failed, group 2 is not empty or a ``KEPT`` key is
stale, so CI keeps deleted test-only code from growing back.

Usage::

    python scripts/reachability.py          # report
    python scripts/reachability.py --json   # report, plus every function
                                            # called, as JSON
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import pathlib
import re
import runpy
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Examples left out of the sweep: the first is slow, the second writes
#: figures.
SKIPPED_EXAMPLES = ("defense_shootout.py", "render_figures.py")

#: Modules whose code runs in worker subprocesses the profiler cannot see.
NOT_SWEPT = ("service/worker.py", "service/fleet.py")

#: A string constant that names something: ``name``, ``pkg.mod:name``.
_NAME_PATH = re.compile(r"[A-Za-z_][\w.:]*")

_PUBLIC = "public API: the repro table and the README quick start"
_STATE_VIEW = "state view that the invariant and engine-parity tests compare"
_ACCESSOR = "short accessor through which tests read live state"

#: Never-called functions kept on purpose, keyed as the report keys them
#: (``path:qualname``); a key also keeps the functions nested in it.
KEPT: Dict[str, str] = {
    "channels/wb/protocol.py:quick_channel_run": _PUBLIC,
    "common/units.py:kbps_to_period_cycles": _PUBLIC,
    "cache/configs.py:make_tiny_hierarchy": _PUBLIC,
    "scenario/library.py:library_spec":
        "public API: the repro.scenario table's spec lookup",
    "runner/manifest.py:RunManifest.result_for":
        "public API: the README's manifest example reads results with it",
    "scenario/zoo.py:verify_zoo": "CI's zoo step calls it",
    "scenario/zoo.py:write_zoo": "regenerates the committed zoo and KEYS.json",
    "faults/chaos.py:crash_once_then_run":
        "runner chaos entry point, named as an entry_point string",
    "faults/chaos.py:hang_once_then_run":
        "runner chaos entry point, named as an entry_point string",
    "coherence/hierarchy.py:CoherentHierarchy.check_invariants":
        "oracle of the MESI fuzz tests",
    "cache/cache_set.py:CacheSet.index_snapshot": _STATE_VIEW,
    "cache/cache_set.py:CacheSet.valid_count": _STATE_VIEW,
    "cache/cache_set.py:CacheSet.scan_counts": _STATE_VIEW,
    "engine/fast_set.py:FastSet.index_snapshot": _STATE_VIEW,
    "engine/fast_set.py:FastSet.valid_count": _STATE_VIEW,
    "engine/fast_set.py:FastSet.scan_counts": _STATE_VIEW,
    "replacement/tree_plru.py:TreePLRU.tree_bits": _STATE_VIEW,
    "replacement/srrip.py:SRRIP.rrpv_values": _STATE_VIEW,
    "cache/hierarchy.py:CacheHierarchy.probe_level": _ACCESSOR,
    "cache/hierarchy.py:CacheHierarchy.dirty_in_l1_set": _ACCESSOR,
    "coherence/hierarchy.py:CoherentHierarchy.probe_level": _ACCESSOR,
    "coherence/hierarchy.py:CoherentHierarchy.dirty_in_l1_set": _ACCESSOR,
    "coherence/hierarchy.py:CoherentHierarchy.l1_of": _ACCESSOR,
    "mem/address_space.py:AddressSpace.is_mapped": _ACCESSOR,
    "cache/configs.py:XeonE5_2650Config.l1_sets": _ACCESSOR,
    "engine/selection.py:current_engine": _ACCESSOR,
    "faults/fleet.py:FleetFaultDecision.loses_lease": _ACCESSOR,
    "sidechannel/rsa_victim.py:KeyRecoveryResult.fully_recovered": _ACCESSOR,
    "sidechannel/victim.py:VictimContext.set_of_line0": _ACCESSOR,
    "sidechannel/victim.py:VictimContext.set_of_line1": _ACCESSOR,
    "telemetry/net.py:StreamPublisher.client_count": _ACCESSOR,
    "telemetry/session.py:active_session": _ACCESSOR,
    "telemetry/session.py:default_config": _ACCESSOR,
    "analysis/capacity.py:summarize_channel_capacity":
        "ROADMAP item 3 reports channel capacity with it",
    "defenses/randomized_mapping.py:find_eviction_set":
        "ROADMAP item 3 wires it into the defenses verdict it backs",
    "_lazy.py:lazy_exports.__dir__": "dir() of a package calls it (PEP 562)",
    "orchestration/counters.py:reset_counters":
        "isolates tests from the process-global fleet counters",
}


class Function:
    """One ``def`` under ``src/repro``."""

    def __init__(self, path: str, qualname: str, first: int, last: int):
        self.path = path
        self.qualname = qualname
        #: First line, decorators included: what ``co_firstlineno`` holds.
        self.first = first
        self.size = last - first + 1

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def defined_functions() -> List[Function]:
    """Every function and method under ``src/repro``, nested ones too."""
    functions: List[Function] = []
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        seen: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    # A property's getter and setter share a name.
                    seen[qualname] = seen.get(qualname, 0) + 1
                    if seen[qualname] > 1:
                        qualname += f"#{seen[qualname]}"
                    first = min(
                        [child.lineno]
                        + [dec.lineno for dec in child.decorator_list]
                    )
                    functions.append(
                        Function(path, qualname, first, child.end_lineno)
                    )
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(file.read_text(), str(file)), "")
    return functions


def _is_export_table(node: ast.AST) -> bool:
    """Whether ``node`` is a package's ``lazy_exports(...)`` call, whose
    strings name what the package exports without using it."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lazy_exports"
    )


def _is_all(node: ast.AST) -> bool:
    """Whether ``node`` assigns to ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


def _walk_code(tree: ast.AST):
    """``ast.walk`` minus type annotations, ``__all__`` lists and export
    tables, which name without using."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node) or _is_export_table(node):
            continue
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))


def names_used(files: List[pathlib.Path]) -> Set[str]:
    """Identifiers ``files`` read, call, import or spell as a name string.

    Definitions, annotations, ``__all__`` and export tables do not count,
    nor do docstrings and other prose strings.
    """
    names: Set[str] = set()
    for file in files:
        for node in _walk_code(ast.parse(file.read_text(), str(file))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME_PATH.fullmatch(node.value)
            ):
                names.update(re.findall(r"\w+", node.value))
    return names


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _run_path(path: pathlib.Path, *args: str) -> None:
    """Run a script as ``__main__`` with ``args``; a non-zero exit raises."""
    saved = sys.argv
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise RuntimeError(f"{path.name} exited with {exc.code}") from None
    finally:
        sys.argv = saved


def _cli(*args: str) -> None:
    from repro.experiments.cli import main

    status = main(list(args))
    if status:
        command = " ".join(args)
        raise RuntimeError(f"wb-experiments {command} exited with {status}")


def sweep_steps() -> List[Tuple[str, Callable[[], None]]]:
    """``(label, action)`` for everything the sweep runs, in order."""
    from repro.engine.selection import available_engines
    from repro.experiments.profiles import QUICK
    from repro.experiments.registry import (
        available_experiments,
        run_experiment,
    )

    steps: List[Tuple[str, Callable[[], None]]] = []
    for engine in available_engines():
        for experiment_id in available_experiments():
            steps.append(
                (
                    f"{experiment_id} quick seed 0 [{engine}]",
                    lambda e=experiment_id, g=engine: run_experiment(
                        e, profile=QUICK.with_engine(g), seed=0
                    ),
                )
            )
    steps.append(("wb-experiments --list", lambda: _cli("--list")))
    steps.append(("wb-experiments --taxonomy", lambda: _cli("--taxonomy")))

    def out_run() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            _cli("table4", "--profile", "quick", "--out", tmp)

    steps.append(("wb-experiments table4 --out TMP", out_run))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        if example.name not in SKIPPED_EXAMPLES:
            steps.append(
                (f"examples/{example.name}", lambda p=example: _run_path(p))
            )
    scripts = REPO_ROOT / "scripts"
    steps.append(
        (
            "scripts/load_test_service.py --smoke",
            lambda: _run_path(scripts / "load_test_service.py", "--smoke"),
        )
    )
    steps.append(
        (
            "scripts/run_campaign.py --json",
            lambda: _run_path(scripts / "run_campaign.py", "--json"),
        )
    )
    return steps


def sweep(log) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every step under the profiler.

    Returns the ``(file, first line)`` of every code object called under
    ``src/repro``, and the label and traceback of each step that failed.
    """
    codes: Set[object] = set()
    add = codes.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    failed: List[str] = []
    steps = sweep_steps()
    with open(os.devnull, "w") as sink:
        for index, (label, action) in enumerate(steps, start=1):
            started = time.perf_counter()
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    action()
            except Exception:  # noqa: BLE001 - reported, sweep goes on
                failed.append(f"{label}\n{traceback.format_exc()}")
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(
                f"[{index}/{len(steps)}] {label} "
                f"({time.perf_counter() - started:.1f}s)",
                file=log,
                flush=True,
            )
    root = str(PACKAGE.resolve()) + os.sep
    called = set()
    for code in codes:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(root):
            relative = pathlib.Path(filename[len(root):]).as_posix()
            called.add((relative, code.co_firstlineno))
    return called, failed


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def build_report(
    called: Set[Tuple[str, int]], failed: List[str]
) -> Dict[str, object]:
    """Counts, the three never-called groups, stale ``KEPT`` keys, and
    every function called."""
    functions = defined_functions()
    product_files = list(PACKAGE.rglob("*.py"))
    for folder in ("examples", "scripts"):
        product_files.extend((REPO_ROOT / folder).rglob("*.py"))
    product_names = names_used(product_files)

    swept = [f for f in functions if f.path not in NOT_SWEPT]
    was_called = [f for f in swept if (f.path, f.first) in called]
    never = [f for f in swept if (f.path, f.first) not in called]

    def kept_reason(function: Function) -> Optional[str]:
        parts = function.qualname.split("#", 1)[0].split(".")
        for end in range(len(parts), 0, -1):
            reason = KEPT.get(f"{function.path}:{'.'.join(parts[:end])}")
            if reason is not None:
                return reason
        return None

    kept = [f for f in never if kept_reason(f) is not None]
    undecided = [f for f in never if kept_reason(f) is None]
    defined_keys = {f.key for f in functions}

    def named_in_product(function: Function) -> bool:
        # A method is reachable only if its class is named too.
        for part in function.qualname.split("#", 1)[0].split("."):
            dunder = part.startswith("__") and part.endswith("__")
            if not (dunder or part in product_names):
                return False
        return True

    def rows(
        group: List[Function],
        reason: Optional[Callable[[Function], Optional[str]]] = None,
    ) -> List[Dict[str, object]]:
        listed = []
        for f in sorted(group, key=lambda f: (-f.size, f.key)):
            row: Dict[str, object] = {
                "function": f.key, "line": f.first, "lines": f.size
            }
            if reason is not None:
                row["reason"] = reason(f)
            listed.append(row)
        return listed

    return {
        "defined": len(swept),
        "called": len(was_called),
        "not_swept": {
            path: sum(1 for f in functions if f.path == path)
            for path in NOT_SWEPT
        },
        "failed_steps": failed,
        "never_called_named_in_product": rows(
            [f for f in undecided if named_in_product(f)]
        ),
        "never_called_named_only_in_tests": rows(
            [f for f in undecided if not named_in_product(f)]
        ),
        "never_called_kept": rows(kept, kept_reason),
        "stale_kept_keys": sorted(set(KEPT) - defined_keys),
        "called_functions": sorted(f.key for f in was_called),
    }


def print_report(report: Dict[str, object]) -> None:
    print(
        f"called {report['called']} of {report['defined']} functions "
        f"under src/repro"
    )
    for path, count in report["not_swept"].items():
        print(f"not swept (runs in worker subprocesses): {path}, "
              f"{count} functions")
    groups = (
        ("never called, named under src/, examples/ or scripts/",
         report["never_called_named_in_product"]),
        ("never called, named only under tests/ (or nowhere)",
         report["never_called_named_only_in_tests"]),
        ("never called, kept on purpose", report["never_called_kept"]),
    )
    for title, rows in groups:
        total = sum(row["lines"] for row in rows)
        print(f"\n{title}: {len(rows)} functions, {total} lines")
        for row in rows:
            reason = f": {row['reason']}" if "reason" in row else ""
            print(f"  {row['lines']:5d}  {row['function']}  "
                  f"(line {row['line']}){reason}")
    for key in report["stale_kept_keys"]:
        print(f"\nSTALE KEEP ENTRY (names no function): {key}")
    for failure in report["failed_steps"]:
        print(f"\nFAILED STEP: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report, with every function "
                             "called, as JSON")
    args = parser.parse_args(argv)
    called, failed = sweep(sys.stderr)
    report = build_report(called, failed)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print_report(report)
    clean = not (
        failed
        or report["never_called_named_only_in_tests"]
        or report["stale_kept_keys"]
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
