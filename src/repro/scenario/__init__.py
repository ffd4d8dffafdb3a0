"""Declarative scenarios: topology + programs + faults + detectors as data.

The spec layer (:mod:`repro.scenario.spec`) defines the canonicalisable
:class:`ScenarioSpec` tree; :mod:`repro.scenario.compile` turns a spec
plus ``(profile, seed)`` into executable measurements;
:mod:`repro.scenario.runner` wraps that in a generic
:class:`~repro.experiments.base.ExperimentResult`;
:mod:`repro.scenario.library` holds the canonical specs behind the
spec-backed registered experiments; :mod:`repro.scenario.zoo` loads and
validates the committed ``scenarios/`` directory.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "spec": (
            "SCENARIO_KINDS",
            "SCENARIO_SCHEMA_VERSION",
            "Axis",
            "BerSweepParams",
            "ChannelSpec",
            "CodecSpec",
            "CoRunnerSpec",
            "Counts",
            "CrossCoreParams",
            "DefenseEvalParams",
            "DetectorSpec",
            "FaultSweepParams",
            "LevelCompareParams",
            "OnlineDetectionParams",
            "ReceiverSpec",
            "ScenarioSpec",
            "SenderSpec",
            "TraceParams",
            "scenario_key",
        ),
        "compile": ("CompiledScenario", "compile_scenario"),
        "runner": (
            "SCENARIO_ID_PREFIX",
            "run_scenario",
            "run_scenario_json",
            "scenario_experiment_id",
        ),
        "library": ("LIBRARY", "available_library_specs", "library_spec"),
        "zoo": (
            "VARIANTS",
            "expand_campaign",
            "load_zoo",
            "verify_zoo",
            "zoo_keys",
            "zoo_specs",
        ),
    },
)
