"""The benchmark's workloads, as plain data shared by ``run.py`` and ``child.py``.

Every workload runs at the paper's population size (150) with one
evaluation worker and one episode per genome.  Its fitness threshold
lies above the environment's best possible return, so a run always
evolves its whole generation budget and the work per run does not depend
on when the population converges.

How much work a run does still depends on its seed: how fast episodes
lengthen and networks grow.  So one benchmark seed stands for
``SUB_SEEDS`` program seeds, which the untraced runs cycle through; each
reaches the program only as ``ExperimentSpec.seed``.
"""

from __future__ import annotations

from typing import Any, Dict, List

POP_SIZE = 150
SUB_SEEDS = 4

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # The host NEAT loop: speciate, reproduce, compile, rollout.
    # CartPole lanes end at widely different steps (rollout tail work).
    "evolve-cartpole": {
        "env_id": "CartPole-v0",
        "backend": "software",
        "vectorizer": "numpy",
        "generations": 30,
        "fitness_threshold": 201.0,
        "reward_bounds": (0.0, 200.0),
        "legs": ("full",),
    },
    # The EvE/ADAM cycle model at the paper design point.  Its host time
    # goes mostly to the EvE walk, not to env steps, and every
    # MountainCar lane runs to (or near) the step limit, so env steps per
    # host second measure the loop rather than how fast a seed learns.
    "soc-mountaincar": {
        "env_id": "MountainCar-v0",
        "backend": "soc",
        "vectorizer": "scalar",
        "generations": 15,
        "fitness_threshold": 1.0,
        "reward_bounds": (-200.0, 0.0),
        "legs": ("full",),
    },
    # A durable run preempted at half its budget and resumed in a second
    # process: checkpoint every generation, one resume read.
    "durable-mountaincar": {
        "env_id": "MountainCar-v0",
        "backend": "software",
        "vectorizer": "numpy",
        "generations": 20,
        "fitness_threshold": 1.0,
        "reward_bounds": (-200.0, 0.0),
        "legs": ("first", "resume"),
    },
}


def program_seeds(seed: int) -> List[int]:
    """The program seeds benchmark seed ``seed`` stands for; distinct
    benchmark seeds give disjoint sets."""
    return [seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]


def spec_fields(workload: str, seed: int) -> Dict[str, Any]:
    """The ``ExperimentSpec`` keyword arguments of ``workload``."""
    w = WORKLOADS[workload]
    return {
        "env_id": w["env_id"],
        "backend": w["backend"],
        "vectorizer": w["vectorizer"],
        "max_generations": w["generations"],
        "pop_size": POP_SIZE,
        "episodes": 1,
        "workers": 1,
        "fitness_threshold": w["fitness_threshold"],
        "seed": seed,
    }
