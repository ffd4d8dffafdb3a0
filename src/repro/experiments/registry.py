"""Registry of all reproduced tables and figures.

Each id maps to the module under :mod:`repro.experiments` that defines its
``run(*, profile, seed)``.  A module is imported the first time its id is
run, so listing or validating ids loads no experiment code.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile

#: Defining module (under ``repro.experiments``) keyed by experiment id.
_MODULES: Dict[str, str] = {
    "table2": "table2",
    "table4": "table4",
    "table5": "table5",
    "table6": "table6",
    "table7": "table7",
    "fig4": "fig4",
    "fig5": "fig5",
    "fig6": "fig6",
    "fig7": "fig7",
    "fig8": "fig8",
    "random_policy": "random_policy",
    "stability": "stability",
    "defenses": "defenses_exp",
    "sidechannel": "sidechannel_exp",
    "online_detection": "online_detection",
    # Extensions and ablations beyond the paper's own evaluation.
    "extension_3bit": "extension_3bit",
    "extension_l2": "extension_l2",
    "cross_core_wb": "cross_core",
    "closed_loop_defense": "closed_loop",
    "fault_tolerance": "fault_tolerance",
    "ablation_errors": "ablation_errors",
    "ablation_replacement_set": "ablation_replacement_set",
}


def available_experiments() -> List[str]:
    """Ids accepted by :func:`run_experiment`, in canonical order."""
    return list(_MODULES)


def experiment_runner(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The ``run(*, profile, seed)`` callable of one experiment.

    Imports the experiment's module on first use; raises
    :class:`ConfigurationError` for an unknown id.
    """
    try:
        module = _MODULES[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    return importlib.import_module(f"repro.experiments.{module}").run


def run_experiment(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    *,
    quick: Optional[bool] = None,
) -> ExperimentResult:
    """Run one experiment by id.

    ``profile`` selects repetition counts (see
    :mod:`repro.experiments.profiles`).  The removed legacy ``quick=``
    flag raises a :class:`TypeError` pointing at ``RunProfile``.
    """
    resolved = resolve_profile(profile, quick=quick)
    runner = experiment_runner(experiment_id)
    # The profile's engine choice is applied process-wide around the run,
    # so every hierarchy the experiment builds — directly or through the
    # channel testbench — picks it up without plumbing.  Results are
    # bit-identical across engines.  The telemetry session works the same
    # way: every hierarchy constructed inside the block attaches to the
    # session bus, and the observed summary rides back in the params
    # (hence into run manifests).
    from repro.engine.selection import engine_context
    from repro.telemetry.session import telemetry_session

    with engine_context(resolved.engine):
        with telemetry_session(enabled=resolved.telemetry) as session:
            result = runner(profile=resolved, seed=seed)
    if session is not None:
        summary = session.summary()
        trace_dir = session.config.trace_out
        if trace_dir:
            import os

            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"{experiment_id}-seed{seed}.jsonl"
            )
            summary["trace_path"] = trace_path
            summary["trace_events"] = session.export_trace(trace_path)
        result.params["telemetry"] = summary
    return result

