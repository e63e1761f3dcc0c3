"""High-level closed-loop runners (deprecated shims).

These entry points predate the unified experiment API and are kept as
thin, behaviour-identical shims over :class:`repro.api.Experiment`:

:func:`evolve_software` — ``Experiment`` with ``backend="software"``.
:func:`evolve_on_hardware` — ``Experiment`` with ``backend="soc"`` (the
GeneSys path: NEAT selection on the System CPU, reproduction on the EvE
PE model, inference on the ADAM systolic model).

New code should build an :class:`repro.api.ExperimentSpec` and run it
with :func:`repro.api.run_experiment` instead — specs are
JSON-serialisable, backend-agnostic, and support parallel fitness
evaluation (``workers=N``), vectorized inference
(``vectorizer="numpy"``) and durable, resumable run directories
(``run_dir=...``; see :mod:`repro.runs`).  The spec-driven equivalents::

    # evolve_software("CartPole-v0", max_generations=50, seed=0)
    run_experiment(ExperimentSpec("CartPole-v0", max_generations=50, seed=0))

    # evolve_on_hardware("CartPole-v0", max_generations=50)
    run_experiment(ExperimentSpec("CartPole-v0", backend="soc",
                                  max_generations=50))

CLI twins: ``repro run CartPole-v0`` and ``repro run --backend soc``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

from ..api.backends import config_for_env  # noqa: F401  (re-exported)
from ..neat.genome import Genome
from ..neat.population import Population
from .config import GeneSysConfig
from .soc import GenerationReport, GeneSysSoC


@dataclass
class SoftwareRunResult:
    best_genome: Genome
    population: Population
    generations: int
    converged: bool


@dataclass
class HardwareRunResult:
    best_genome: Genome
    soc: GeneSysSoC
    reports: List[GenerationReport]
    generations: int
    converged: bool

    @property
    def total_energy_j(self) -> float:
        return sum(r.energy.total_energy_j for r in self.reports)

    @property
    def total_cycles(self) -> int:
        return sum(r.inference_cycles + r.evolution_cycles for r in self.reports)


def _build_spec(
    env_id: str,
    backend: str,
    max_generations: int,
    pop_size: int,
    episodes: int,
    max_steps: Optional[int],
    seed: int,
    fitness_threshold: Optional[float],
):
    from ..api import ExperimentSpec

    return ExperimentSpec(
        env_id=env_id,
        backend=backend,
        max_generations=max_generations,
        pop_size=pop_size,
        episodes=episodes,
        max_steps=max_steps,
        seed=seed,
        fitness_threshold=fitness_threshold,
    )


def evolve_software(
    env_id: str,
    max_generations: int = 50,
    pop_size: int = 150,
    episodes: int = 1,
    max_steps: Optional[int] = None,
    seed: int = 0,
    fitness_threshold: Optional[float] = None,
) -> SoftwareRunResult:
    """Pure-software NEAT run (the CPU/GPU baseline algorithm).

    .. deprecated:: 1.1
        Use ``run_experiment(ExperimentSpec(env_id))`` — the spec-driven
        equivalent additionally supports ``workers``, ``vectorizer`` and
        resumable run directories (CLI: ``repro run <env>``).
    """
    warnings.warn(
        "evolve_software is deprecated; use repro.api.run_experiment("
        "ExperimentSpec(env_id)) — the spec-driven path also offers "
        "workers=N, vectorizer='numpy' and run_dir=... (repro.runs)",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import Experiment

    spec = _build_spec(
        env_id, "software", max_generations, pop_size, episodes, max_steps,
        seed, fitness_threshold,
    )
    result = Experiment(spec).run()
    return SoftwareRunResult(
        best_genome=result.champion,
        population=result.population,
        generations=result.generations,
        converged=result.converged,
    )


def evolve_on_hardware(
    env_id: str,
    max_generations: int = 50,
    pop_size: int = 150,
    episodes: int = 1,
    max_steps: Optional[int] = None,
    seed: int = 0,
    fitness_threshold: Optional[float] = None,
    soc_config: Optional[GeneSysConfig] = None,
) -> HardwareRunResult:
    """Closed-loop evolution through the EvE/ADAM hardware models.

    A caller-provided ``soc_config`` is no longer mutated in place; the
    spec's NEAT sizing and seed are applied to a copy.

    .. deprecated:: 1.1
        Use ``run_experiment(ExperimentSpec(env_id, backend="soc"))``
        (CLI: ``repro run <env> --backend soc``); pass rich hardware
        design points via ``backend_options`` or ``soc_config``.
    """
    warnings.warn(
        "evolve_on_hardware is deprecated; use repro.api.run_experiment("
        "ExperimentSpec(env_id, backend='soc')) — hardware knobs go in "
        "backend_options (eve_pes, noc, scheduler, adam_shape)",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import Experiment

    spec = _build_spec(
        env_id, "soc", max_generations, pop_size, episodes, max_steps,
        seed, fitness_threshold,
    )
    result = Experiment(spec, soc_config=soc_config).run()
    return HardwareRunResult(
        best_genome=result.champion,
        soc=result.soc,
        reports=result.reports,
        generations=result.generations,
        converged=result.converged,
    )
