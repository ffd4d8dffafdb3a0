"""Bit-identity of every registered experiment against committed goldens.

Each experiment's quick/seed-0 JSON must equal, byte for byte, the file
recorded in ``tests/golden/`` (``result.to_json(indent=2) + "\\n"``), on
both engines.  Any drift — RNG consumption order, loop nesting, seed
formulas, row shaping, a fast-engine divergence — fails here before it
can silently change published numbers.  The nine spec-backed goldens
were recorded from the pre-spec implementations (or, for the coherence
and orchestration experiments, when they were added); the other 13 at
the commit before the covert channels shared one framing and scoring
step.  A change that means to move a golden re-records it and says why.
"""

from pathlib import Path

import pytest

from repro.experiments import available_experiments
from repro.scenario.library import available_library_specs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

EXPERIMENTS = tuple(available_experiments())


def test_every_library_spec_has_a_golden():
    assert set(available_library_specs()) <= set(EXPERIMENTS)
    recorded = sorted(
        path.name[: -len(".quick-seed0.json")]
        for path in GOLDEN_DIR.glob("*.quick-seed0.json")
    )
    assert recorded == sorted(EXPERIMENTS)


@pytest.mark.parametrize(
    "experiment_id, engine",
    # The reference leg keeps the bare experiment id it always had.
    [pytest.param(e, "reference", id=e) for e in EXPERIMENTS]
    + [pytest.param(e, "fast", id=f"{e}-fast") for e in EXPERIMENTS],
)
def test_spec_rebased_experiment_matches_golden(
    experiment_id, engine, quick_result
):
    golden_path = GOLDEN_DIR / f"{experiment_id}.quick-seed0.json"
    golden = golden_path.read_text(encoding="utf-8")
    result = quick_result(experiment_id, engine)
    assert result.to_json(indent=2) + "\n" == golden, (
        f"{experiment_id} on the {engine} engine: quick seed-0 output "
        f"drifted from its golden ({golden_path.name})"
    )
