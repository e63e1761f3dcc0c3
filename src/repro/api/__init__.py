"""Unified experiment API: one spec, pluggable backends, one result.

The paper's central claim is that *the same* evolutionary loop runs across
many substrates — a software CPU baseline, the EvE/ADAM SoC, the Table III
platform models — and many workloads, with only the fitness function
changing (Section III-B).  This package is that claim as an API:

* :class:`ExperimentSpec` — a frozen, JSON-round-trippable description of
  one experiment (workload + algorithm + backend + evaluation settings).
* :class:`Experiment` — resolves a spec against a registered
  :class:`Backend` and runs the closed loop.
* :class:`Backend` — the substrate protocol.  Three implementations ship:
  ``software`` (pure-software NEAT), ``soc`` (the EvE/ADAM hardware-in-
  the-loop models) and ``analytical:<platform>`` (software evolution
  costed through a Table III platform model).
* :class:`RunResult` / :class:`GenerationMetrics` — the unified result
  every backend returns, with optional hardware reports and energy/cycle
  totals.
* ``workers`` and ``vectorizer`` on the spec configure the one
  :class:`repro.envs.evaluate.FitnessEvaluator`: ``vectorizer="numpy"``
  compiles the population into per-layer edge lists
  (:mod:`repro.neat.compiled`) and steps every in-flight episode per
  numpy call, ``workers=N`` shards the population over a
  ``multiprocessing`` pool.  Per-genome derived seeds make every
  combination reproduce the serial scalar fitness trajectories.
* ``run_dir=...`` on :func:`run_experiment` records the run durably and
  makes it resumable (:mod:`repro.runs`): per-generation metrics,
  periodic full-state checkpoints, champion — with resumed runs
  bit-identical to uninterrupted ones.

Quickstart::

    from repro.api import Experiment, ExperimentSpec

    spec = ExperimentSpec("CartPole-v0", backend="soc", max_generations=20)
    result = Experiment(spec).run()
    print(result.best_fitness, result.total_energy_j)
"""

from .._lazy import lazy_exports

# Submodules load on first use: ``from repro.api import ExperimentSpec``
# loads only the spec.
__all__ = lazy_exports(__name__, {
    "backends": (
        "AnalyticalBackend",
        "Backend",
        "EvaluationObserver",
        "GenerationObserver",
        "ResumeUnsupportedError",
        "ShouldStop",
        "SoCBackend",
        "SoftwareBackend",
        "StateObserver",
        "UnknownBackendError",
        "available_backends",
        "make_backend",
        "register_backend",
    ),
    "experiment": ("Experiment", "run_experiment"),
    "result": ("GenerationMetrics", "RunResult"),
    "spec": ("ExperimentSpec", "SpecError"),
})
