"""Bit-identity of the spec-rebased experiments against committed goldens.

The WB-channel experiment family was rebased from imperative bodies onto
``compile_scenario`` + the library specs.  These tests pin the refactor:
each experiment's quick/seed-0 JSON must equal, byte for byte, the output
captured from the pre-refactor implementation (``tests/golden/``), on
both engines.  Any drift — RNG consumption order, loop nesting, seed
formulas, row shaping, a fast-engine divergence — fails here before it
can silently change published numbers.
"""

from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.profiles import resolve_profile
from repro.scenario.library import available_library_specs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The spec-backed experiment family (mirrors repro.scenario.library).
SPEC_BACKED = (
    "fig6",
    "fig7",
    "fig8",
    "extension_l2",
    "fault_tolerance",
    "online_detection",
    "defenses",
    # Added with the coherence layer (no pre-refactor ancestor; the
    # golden pins cross-engine/cross-version determinism from day one).
    "cross_core_wb",
    # Added with the orchestration layer; the golden pins alarm times,
    # the flip event id, and pre/post-flip capacities from day one.
    "closed_loop_defense",
)


def test_every_library_spec_has_a_golden():
    assert sorted(SPEC_BACKED) == sorted(available_library_specs())
    for experiment_id in SPEC_BACKED:
        assert (GOLDEN_DIR / f"{experiment_id}.quick-seed0.json").is_file()


@pytest.mark.parametrize(
    "experiment_id, engine",
    # The reference leg keeps the bare experiment id it always had.
    [pytest.param(e, "reference", id=e) for e in SPEC_BACKED]
    + [pytest.param(e, "fast", id=f"{e}-fast") for e in SPEC_BACKED],
)
def test_spec_rebased_experiment_matches_golden(experiment_id, engine):
    golden_path = GOLDEN_DIR / f"{experiment_id}.quick-seed0.json"
    golden = golden_path.read_text(encoding="utf-8")
    profile = resolve_profile("quick").with_engine(engine)
    result = run_experiment(experiment_id, profile=profile, seed=0)
    assert result.to_json(indent=2) + "\n" == golden, (
        f"{experiment_id} on the {engine} engine: spec-compiled output "
        f"drifted from the pre-refactor golden ({golden_path.name})"
    )
