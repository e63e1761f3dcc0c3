"""Fitness evaluation: run genome phenotypes against an environment.

This is the software path of walkthrough steps 2-6 (Section IV-B): read
environment state, run inference, translate output activations to actions,
repeat until the episode completes, convert the cumulative reward into a
fitness value attached to the genome.

One :class:`FitnessEvaluator` evaluates a population; its settings pick
how, never what.  ``vectorizer`` picks the inference kernel: ``scalar``
walks each genome node by node, ``numpy`` compiles the population into
per-layer edge lists (:mod:`repro.neat.compiled`) and steps every
(genome, episode) lane in lockstep, the software twin of the paper's
*vectorize routine*.  ``workers`` shards the population into contiguous
slices over a process pool.  Episode seeds derive per genome in the
parent, so every combination assigns bit-identical fitnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..api.spec import VECTORIZERS
from ..neat.compiled import CompileError, StackedPlans, compile_network
from ..neat.config import GenomeConfig, NEATConfig
from ..neat.genome import Genome
from ..neat.network import FeedForwardNetwork
from .base import Environment
from .batched import make_batched
from .registry import make
from .seeding import episode_seed
from .spaces import Box, Discrete, MultiBinary


def action_from_outputs(outputs: Sequence[float], env: Environment):
    """Translate network output activations into an environment action.

    Discrete spaces take the argmax output unit; Box spaces clip the raw
    outputs into the action bounds (step 4: "output activations ... are
    translated as actions").

    Tie-breaking is part of the contract: when several output units share
    the maximum activation, the *lowest-index* unit wins.  This keeps the
    scalar, vectorized and hardware inference paths action-identical on
    tied outputs instead of depending on whichever argmax an evaluation
    backend happens to use.
    """
    space = env.action_space
    if isinstance(space, Discrete):
        if len(outputs) == 1:
            # Single-output binary convention for 2-action spaces.
            if space.n == 2:
                return int(outputs[0] > 0.5 if 0.0 <= outputs[0] <= 1.0 else outputs[0] > 0.0)
            scaled = int(abs(outputs[0]) * space.n) % space.n
            return scaled
        head = outputs[: space.n]
        best = 0
        for i in range(1, len(head)):
            if head[i] > head[best]:  # strict: ties keep the lowest index
                best = i
        return best
    if isinstance(space, Box):
        arr = np.asarray(outputs[: space.flat_dim], dtype=np.float64)
        if arr.size < space.flat_dim:
            # Zero-fill missing dimensions (clipped into bounds below) so a
            # network with fewer outputs than the action space still emits a
            # full, in-bounds action instead of a silently short one.
            arr = np.pad(arr, (0, space.flat_dim - arr.size))
        return np.clip(arr, space.low.ravel(), space.high.ravel())
    if isinstance(space, MultiBinary):
        return [1 if o > 0.5 else 0 for o in outputs[: space.n]]
    raise TypeError(f"unsupported action space {space!r}")


def actions_from_outputs_batch(outputs: np.ndarray, space) -> np.ndarray:
    """Vectorized :func:`action_from_outputs` over a lane axis.

    ``outputs`` is ``(lanes, num_outputs)``; the result holds one action
    per row with semantics identical to the scalar translator, including
    lowest-index tie-breaking for Discrete argmax.  Discrete returns an
    int array, Box a ``(lanes, flat_dim)`` float array, MultiBinary a
    ``(lanes, n)`` int array.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if isinstance(space, Discrete):
        if outputs.shape[1] == 1:
            o = outputs[:, 0]
            if space.n == 2:
                in_unit = (o >= 0.0) & (o <= 1.0)
                return np.where(in_unit, o > 0.5, o > 0.0).astype(np.intp)
            # Mirror the scalar `int(abs(o) * n) % n` in float space:
            # floor matches int() on the non-negative product, and fmod on
            # the (exactly representable) floored value matches Python's
            # integer modulo even where a direct int64 cast would overflow
            # for huge activations.
            return np.fmod(np.floor(np.abs(o) * space.n), space.n).astype(np.intp)
        # np.argmax returns the first (lowest-index) maximum, matching the
        # scalar tie-break contract.
        return np.argmax(outputs[:, : space.n], axis=1)
    if isinstance(space, Box):
        arr = outputs[:, : space.flat_dim]
        if arr.shape[1] < space.flat_dim:
            arr = np.pad(arr, ((0, 0), (0, space.flat_dim - arr.shape[1])))
        return np.clip(arr, space.low.ravel(), space.high.ravel())
    if isinstance(space, MultiBinary):
        return (outputs[:, : space.n] > 0.5).astype(np.intp)
    raise TypeError(f"unsupported action space {space!r}")


@dataclass
class EpisodeResult:
    total_reward: float
    steps: int
    inference_macs: int


@dataclass
class EvaluationTotals:
    """Aggregate inference work done during one population evaluation.

    Feeds the platform models: total forward passes and MAC counts are the
    per-generation inference workload of Fig. 9(a)/(b).
    """

    episodes: int = 0
    steps: int = 0
    macs: int = 0


def run_episode(
    network: FeedForwardNetwork,
    env: Environment,
    max_steps: Optional[int] = None,
) -> EpisodeResult:
    """One rollout of ``network`` in ``env`` (steps 2-5 of the walkthrough)."""
    obs = env.reset()
    network.reset()
    total_reward = 0.0
    steps = 0
    macs_per_pass = network.num_macs
    limit = max_steps if max_steps is not None else env.max_episode_steps
    for _ in range(limit):
        outputs = network.activate(obs.ravel().tolist())
        action = action_from_outputs(outputs, env)
        obs, reward, done, _info = env.step(action)
        total_reward += reward
        steps += 1
        if done:
            break
    return EpisodeResult(total_reward, steps, macs_per_pass * steps)


def run_episodes_batched(
    policy,
    env_batch,
    seeds: Sequence[int],
    max_steps: Optional[int] = None,
    macs_per_pass: Optional[Sequence[int]] = None,
) -> List[EpisodeResult]:
    """Batched :func:`run_episode`: one lane per seed, stepped in lockstep.

    ``policy`` maps a packed observation matrix to a packed output matrix
    (``step(obs) -> outputs``) and is told when lanes finish
    (``prune(keep)``) so it can compact its per-lane state alongside
    ``env_batch``.  Rewards accumulate per lane in step order, so each
    lane's float arithmetic matches the scalar episode loop exactly.
    """
    n = len(seeds)
    obs = env_batch.start(seeds)
    limit = max_steps if max_steps is not None else env_batch.max_episode_steps
    space = env_batch.action_space
    rewards = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    for _ in range(limit):
        if len(live) == 0:
            break
        outputs = policy.step(obs)
        actions = actions_from_outputs_batch(outputs, space)
        obs, step_rewards, dones = env_batch.step(actions)
        rewards[live] += step_rewards
        steps[live] += 1
        if dones.any():
            keep = ~dones
            live = live[keep]
            obs = obs[keep]
            env_batch.prune(keep)
            policy.prune(keep)
    per_pass = macs_per_pass if macs_per_pass is not None else [0] * n
    return [
        EpisodeResult(float(rewards[i]), int(steps[i]), int(per_pass[i]) * int(steps[i]))
        for i in range(n)
    ]


#: One genome's ``(genome, episode seeds)`` evaluation task, and its
#: outcome: ``(rewards, env steps, inference MACs, levelised depth)``.
Task = Tuple[Genome, List[int]]
Outcome = Tuple[List[float], int, int, int]


def _outcome(episodes: Sequence[EpisodeResult], depth: int) -> Outcome:
    return (
        [e.total_reward for e in episodes],
        sum(e.steps for e in episodes),
        sum(e.inference_macs for e in episodes),
        depth,
    )


class _Rollouts:
    """Runs evaluation tasks in one process with one inference kernel.

    The environments are built on first use and kept, so a pool worker
    builds them once for the life of the pool.
    """

    def __init__(self, env_id: str, max_steps: Optional[int], vectorizer: str,
                 scenario=None) -> None:
        self.env_id = env_id
        self.max_steps = max_steps
        self.vectorizer = vectorizer
        #: frozen dataclass: pickles into the pool initializer cleanly
        self.scenario = scenario
        self._env = None
        self._env_batch = None

    def _scalar_env(self) -> Environment:
        if self._env is None:
            if self.scenario is not None:
                from ..scenarios import build_env  # lazy: avoids a package cycle

                self._env = build_env(self.scenario)
            else:
                self._env = make(self.env_id)
        return self._env

    def _batched_env(self):
        if self._env_batch is None:
            if self.scenario is not None:
                # A perturbed or wrapped env fails the vectorized
                # template check and runs on the lockstep fallback.
                from ..scenarios import build_batched_env

                self._env_batch = build_batched_env(self.scenario)
            else:
                self._env_batch = make_batched(self.env_id)
        return self._env_batch

    def __call__(
        self, tasks: Sequence[Task], genome_config: GenomeConfig
    ) -> List[Outcome]:
        if self.vectorizer == "numpy":
            return self._compiled(tasks, genome_config)
        return self._scalar(tasks, genome_config)

    def _scalar(
        self, tasks: Sequence[Task], genome_config: GenomeConfig
    ) -> List[Outcome]:
        """The reference kernel: each genome's network, node by node."""
        env = self._scalar_env()
        outcomes = []
        for genome, seeds in tasks:
            network = FeedForwardNetwork.create(genome, genome_config)
            episodes = []
            for seed in seeds:
                env.seed(seed)
                episodes.append(run_episode(network, env, self.max_steps))
            outcomes.append(_outcome(episodes, network.depth))
        return outcomes

    def _compiled(
        self, tasks: Sequence[Task], genome_config: GenomeConfig
    ) -> List[Outcome]:
        """Every (genome, episode) pair becomes a lane of one lockstep
        rollout; genomes that do not compile take the scalar kernel on
        the same seeds."""
        plans = []
        with obs.span("compile", genomes=len(tasks)) as sp:
            for genome, _seeds in tasks:
                try:
                    plans.append(compile_network(genome, genome_config))
                except CompileError:
                    plans.append(None)
            sp.set(compiled=sum(1 for p in plans if p is not None))
        outcomes: List[Optional[Outcome]] = [None] * len(tasks)

        compiled = [i for i, p in enumerate(plans) if p is not None]
        if compiled:
            stacked = StackedPlans([plans[i] for i in compiled])
            lane_plans = [
                slot for slot, i in enumerate(compiled) for _ in tasks[i][1]
            ]
            lane_seeds = [seed for i in compiled for seed in tasks[i][1]]
            with obs.span("rollout", genomes=len(compiled), lanes=len(lane_seeds)):
                episodes = run_episodes_batched(
                    stacked.lane_runner(lane_plans),
                    self._batched_env(),
                    lane_seeds,
                    max_steps=self.max_steps,
                    macs_per_pass=stacked.macs[lane_plans],
                )
            lane = 0
            for i in compiled:
                n = len(tasks[i][1])
                outcomes[i] = _outcome(episodes[lane : lane + n], len(plans[i].layers))
                lane += n

        fallback = [i for i, p in enumerate(plans) if p is None]
        if fallback:
            with obs.span("fallback", genomes=len(fallback)):
                scalar = self._scalar([tasks[i] for i in fallback], genome_config)
            for i, outcome in zip(fallback, scalar):
                outcomes[i] = outcome
        return outcomes


# Per-worker state, set by the pool initializer: the worker's rollouts
# and the genome config, shipped once rather than with every chunk.
_WORKER: Optional[Tuple[_Rollouts, GenomeConfig]] = None


def _init_worker(rollouts: _Rollouts, genome_config: GenomeConfig) -> None:
    global _WORKER
    _WORKER = (rollouts, genome_config)


def _evaluate_worker_chunk(tasks: Sequence[Task]) -> List[Outcome]:
    rollouts, genome_config = _WORKER
    # Forked workers inherit the parent's installed tracer (the path,
    # not a shared handle), so chunk spans land in the same telemetry
    # file tagged with the worker's pid.
    with obs.span("parallel.chunk", genomes=len(tasks)):
        return rollouts(tasks, genome_config)


class FitnessEvaluator:
    """Callable fitness function for :class:`repro.neat.Population`.

    Evaluates each genome over ``episodes`` rollouts with per-genome
    derived seeds and assigns the mean cumulative reward as fitness
    (step 6: "The reward value is then translated into a fitness value").
    A custom ``fitness_transform`` supports the paper's observation that
    only the fitness function changes between workloads; it runs in the
    calling process, so it need not pickle.

    ``vectorizer`` (``scalar`` or ``numpy``) picks the inference kernel
    and ``workers`` the process count: ``workers=1`` evaluates
    in-process, ``workers>1`` maps contiguous population slices over a
    pool.  Every combination assigns identical fitnesses for a fixed
    seed.  ``start_generation`` restarts the episode-seed stream where a
    checkpoint left off, so a resumed run replays the uninterrupted
    one.  Call :meth:`close` (or use as a context manager) to release
    the pool.
    """

    def __init__(
        self,
        env_id: str,
        episodes: int = 1,
        max_steps: Optional[int] = None,
        seed: Optional[int] = 0,
        fitness_transform: Optional[Callable[[float], float]] = None,
        workers: int = 1,
        vectorizer: str = "scalar",
        start_generation: int = 0,
        scenario=None,
    ) -> None:
        if vectorizer not in VECTORIZERS:
            raise ValueError(
                f"unknown vectorizer {vectorizer!r}; known: {VECTORIZERS}"
            )
        self.env_id = env_id
        self.episodes = episodes
        self.max_steps = max_steps
        self.seed = seed
        self.fitness_transform = fitness_transform
        self.workers = workers
        self.vectorizer = vectorizer
        self.scenario = scenario
        self.totals = EvaluationTotals()
        #: Mean levelised depth (waves per forward pass) of the last
        #: evaluated generation, a by-product of building its networks
        #: (None until the first call).
        self.last_mean_depth: Optional[float] = None
        # Episode seeds derive from the generation index, so a resumed
        # run must restart the counter where the checkpoint left off.
        self._generation = start_generation
        self._rollouts = _Rollouts(env_id, max_steps, vectorizer, scenario)
        self._pool = None
        self._pool_genome_config = None

    def __call__(self, genomes: List[Genome], config: NEATConfig) -> None:
        tasks = [
            (
                genome,
                [
                    episode_seed(self.seed, self._generation, genome.key, episode)
                    for episode in range(self.episodes)
                ],
            )
            for genome in genomes
        ]
        if self.workers > 1:
            outcomes = self._map(tasks, config.genome)
        else:
            outcomes = self._rollouts(tasks, config.genome)
        total_depth = 0
        for genome, (rewards, steps, macs, depth) in zip(genomes, outcomes):
            fitness = sum(rewards) / len(rewards)
            if self.fitness_transform is not None:
                fitness = self.fitness_transform(fitness)
            genome.fitness = fitness
            self.totals.episodes += len(rewards)
            self.totals.steps += steps
            self.totals.macs += macs
            total_depth += depth
        self.last_mean_depth = total_depth / len(genomes) if genomes else 0.0
        self._generation += 1

    def _map(self, tasks: List[Task], genome_config: GenomeConfig) -> List[Outcome]:
        """Evaluate contiguous slices, one per worker, in the pool; the
        outcomes concatenate back in input order."""
        # The genome config is baked into the workers at pool creation;
        # a different one (rare) rebuilds the pool.
        if self._pool is not None and genome_config != self._pool_genome_config:
            self.close()
        if self._pool is None:
            import multiprocessing  # only pooled evaluation loads it

            self._pool = multiprocessing.get_context().Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self._rollouts, genome_config),
            )
            self._pool_genome_config = genome_config
        bounds = [len(tasks) * w // self.workers for w in range(self.workers + 1)]
        chunks = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        with obs.span(
            "parallel.map",
            workers=self.workers,
            genomes=len(tasks),
            vectorizer=self.vectorizer,
        ):
            parts = self._pool.map(_evaluate_worker_chunk, chunks)
        return [outcome for part in parts for outcome in part]

    def close(self) -> None:
        """Release the pool, if any; idempotent (safe to call repeatedly,
        and after ``__del__`` already tore the pool down)."""
        pool, self._pool = self._pool, None
        self._pool_genome_config = None
        if pool is not None:
            pool.close()
            pool.join()

    def __enter__(self) -> "FitnessEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            # terminate() alone leaves zombie processes (and leaked
            # semaphores) until the parent exits; join() reaps them.
            pool, self._pool = getattr(self, "_pool", None), None
            if pool is not None:
                pool.terminate()
                pool.join()
        except Exception:
            pass
