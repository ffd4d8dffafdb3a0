"""Task planning: experiments → schedulable shards with pinned seeds.

The planner turns a list of experiment ids into :class:`TaskSpec` units —
one per (experiment, seed) — *before* anything executes.  Seeds are
derived here, serially, with :func:`repro.common.rng.derive_seed`, so the
work list is a pure function of ``(experiment_ids, profile, base_seed,
seeds_per_experiment)`` and a parallel run computes bit-for-bit the same
results as a serial run no matter how workers pick tasks up.

Heavy experiments (the multi-message BER sweeps) are dispatched first —
longest-processing-time-first keeps the pool busy instead of leaving one
worker grinding through ``defenses`` after everyone else drained the
queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.experiments.profiles import ProfileLike, RunProfile, resolve_profile

#: Relative cost of one quick-profile run (measured seconds on the
#: reference machine, used only for scheduling order — never correctness).
EXPERIMENT_WEIGHTS: Dict[str, float] = {
    "defenses": 9.0,
    "fig6": 7.5,
    "table6": 4.0,
    "extension_3bit": 3.1,
    "stability": 2.8,
    "ablation_replacement_set": 2.6,
    "fig8": 2.4,
    "ablation_errors": 2.3,
    "random_policy": 2.1,
    "fault_tolerance": 1.6,
    "extension_l2": 1.4,
    "table7": 0.8,
    "table5": 0.8,
    "sidechannel": 0.4,
    "trace_sweep": 0.4,
    "fig5": 0.4,
    "table2": 0.3,
    "fig4": 0.3,
    "fig7": 0.1,
    "table4": 0.1,
}


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work: an experiment at a pinned seed.

    ``entry_point`` (``"package.module:function"``) overrides the registry
    lookup; the referenced callable must accept ``(profile=, seed=)`` and
    return an :class:`~repro.experiments.base.ExperimentResult`.  It exists
    for extensions and for the test suite's crashing fakes — being a dotted
    path rather than a callable keeps specs picklable under every
    multiprocessing start method.

    ``scenario`` carries a declarative :class:`repro.scenario.ScenarioSpec`
    as its serialised JSON (a plain string for the same picklability
    reason); the worker runs it through
    :func:`repro.scenario.runner.run_scenario_json` instead of the
    registry.  ``experiment_id`` then holds the ``scenario:<name>`` label.
    """

    task_id: str
    experiment_id: str
    seed: int
    profile: RunProfile
    shard_index: int = 0
    num_shards: int = 1
    #: Wall-clock budget in seconds; ``None`` means unlimited.
    timeout: Optional[float] = None
    #: Scheduling weight (heavier dispatches earlier); not a correctness input.
    weight: float = 1.0
    entry_point: Optional[str] = None
    #: Serialised ScenarioSpec JSON for declarative scenario tasks.
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.entry_point is not None:
            raise ConfigurationError(
                "a task carries either a scenario or an entry_point "
                "override, not both"
            )
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if not 0 <= self.shard_index < self.num_shards:
            raise ConfigurationError(
                f"shard_index {self.shard_index} out of range "
                f"[0, {self.num_shards})"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {self.timeout}"
            )


def plan_tasks(
    experiment_ids: Sequence[str],
    profile: ProfileLike = None,
    base_seed: int = 0,
    seeds_per_experiment: int = 1,
    timeout: Optional[float] = None,
) -> List[TaskSpec]:
    """Expand experiments into task shards with deterministic seeds.

    Shard 0 of every experiment runs at ``base_seed`` — exactly what a
    plain serial ``run_experiment(id, seed=base_seed)`` computes — so a
    single-seed parallel run is directly comparable to the serial one.
    Additional shards (``seeds_per_experiment > 1``, the multi-seed sweeps
    the paper uses for its rate/BER trade-off curves) get order-independent
    seeds derived from ``(base_seed, experiment_id, shard_index)``.
    """
    resolved = resolve_profile(profile)
    if seeds_per_experiment < 1:
        raise ConfigurationError(
            f"seeds_per_experiment must be >= 1, got {seeds_per_experiment}"
        )
    tasks: List[TaskSpec] = []
    for experiment_id in experiment_ids:
        for shard in range(seeds_per_experiment):
            if shard == 0:
                seed = base_seed
                task_id = experiment_id
            else:
                seed = derive_seed(base_seed, f"{experiment_id}/shard{shard}")
                task_id = f"{experiment_id}#s{shard}"
            tasks.append(
                TaskSpec(
                    task_id=task_id,
                    experiment_id=experiment_id,
                    seed=seed,
                    profile=resolved,
                    shard_index=shard,
                    num_shards=seeds_per_experiment,
                    timeout=timeout,
                    weight=EXPERIMENT_WEIGHTS.get(experiment_id, 1.0),
                )
            )
    return tasks


def dispatch_order(tasks: Sequence[TaskSpec]) -> List[TaskSpec]:
    """Heaviest-first dispatch order (stable for equal weights)."""
    return sorted(
        tasks, key=lambda task: (-task.weight, task.experiment_id, task.shard_index)
    )


def with_timeout(task: TaskSpec, timeout: Optional[float]) -> TaskSpec:
    """A copy of ``task`` with its timeout replaced."""
    return replace(task, timeout=timeout)
