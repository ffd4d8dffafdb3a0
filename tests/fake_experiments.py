"""Deliberately misbehaving experiments for runner fault-injection tests.

These are referenced by dotted ``entry_point`` strings in
:class:`repro.runner.TaskSpec`, so they must live in an importable module
— worker processes resolve them by import, not by pickled closure.
"""

import os
import time

from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import resolve_profile

#: Environment variable naming the marker file ``crash_once`` uses to
#: remember (across processes) that it already crashed.
CRASH_MARKER_ENV = "REPRO_TEST_CRASH_MARKER"


def _result(seed: int) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="fake",
        title="fake experiment",
        paper_reference="tests",
        columns=["seed"],
        rows=[[seed]],
    )


def well_behaved(profile=None, seed=0):
    """Returns a tiny result; sanity baseline for entry-point tasks."""
    resolve_profile(profile)
    return _result(seed)


def always_crash(profile=None, seed=0):
    """Kills the worker process outright on every attempt."""
    os._exit(21)


def crash_once(profile=None, seed=0):
    """Crashes the first attempt, succeeds on the retry.

    Cross-process memory is a marker file named by ``CRASH_MARKER_ENV``
    (workers inherit the environment).
    """
    marker = os.environ[CRASH_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(22)
    return _result(seed)


def sleeps_forever(profile=None, seed=0):
    """Overstays any reasonable timeout."""
    time.sleep(600)
    return _result(seed)


#: Environment variable naming the file ``interrupt_after`` counts task
#: completions in before raising KeyboardInterrupt.
INTERRUPT_MARKER_ENV = "REPRO_TEST_INTERRUPT_MARKER"


def interrupt_after(profile=None, seed=0):
    """Simulates Ctrl-C: completes once, interrupts the next call.

    The marker file (``INTERRUPT_MARKER_ENV``) carries the "already ran
    once" bit across calls, so a serial run finishes its first task and
    is interrupted on the second — leaving a partial, resumable manifest.
    """
    marker = os.environ[INTERRUPT_MARKER_ENV]
    if os.path.exists(marker):
        raise KeyboardInterrupt
    with open(marker, "w"):
        pass
    return _result(seed)


def seed_echo(profile=None, seed=0):
    """Deterministic result rows keyed by seed (resume-equality fodder)."""
    return _result(seed)


def echo_experiment_id(profile=None, seed=0, experiment_id=None):
    """Reports the experiment id the pool bound for it (see
    ``resolve_entry_point``); one callable serving many task ids."""
    return ExperimentResult(
        experiment_id=str(experiment_id),
        title="fake experiment",
        paper_reference="tests",
        columns=["experiment_id"],
        rows=[[experiment_id]],
    )


def raises_error(profile=None, seed=0):
    """Fails with a deterministic Python exception (no retry expected)."""
    raise ValueError("deliberate failure for tests")


#: Environment variables for ``gated_count``: the invocation log and the
#: gate file whose existence releases blocked invocations.
COUNT_FILE_ENV = "REPRO_TEST_COUNT_FILE"
GATE_FILE_ENV = "REPRO_TEST_GATE_FILE"


def gated_count(profile=None, seed=0):
    """Logs its invocation, then blocks until the gate file appears.

    The service scheduler tests use this to hold a computation in flight
    deterministically: submissions made while the gate is closed must
    coalesce (or queue) rather than racing the computation's completion.
    Appends ``seed`` to the ``COUNT_FILE_ENV`` file on entry, so the
    line count is the exact number of computations that ran and the line
    order is the order the scheduler dispatched them.
    """
    with open(os.environ[COUNT_FILE_ENV], "a") as handle:
        handle.write(f"{seed}\n")
        handle.flush()
    gate = os.environ[GATE_FILE_ENV]
    deadline = time.monotonic() + 30.0
    while not os.path.exists(gate):
        if time.monotonic() > deadline:
            raise RuntimeError("gate file never appeared; test hung?")
        time.sleep(0.005)
    return _result(seed)
