"""Parallel fitness evaluation: the hot path of every benchmark.

Population evaluation is embarrassingly parallel — each genome's rollouts
are independent once the episode seeds are fixed.  The paper's per-genome
derived seeds (see :class:`repro.envs.evaluate.FitnessEvaluator`) make
this exact: seeds are computed in the parent with the *same* formula the
serial evaluator uses, so ``workers=N`` produces bit-identical fitnesses
to ``workers=1`` and results stay reproducible across machine sizes.

Workers are plain ``multiprocessing`` pool processes; each builds its
environment once in the pool initializer and re-uses it across
generations, mirroring the serial evaluator's single-env loop.

``vectorizer="numpy"`` composes with workers: each worker compiles its
contiguous slice of the population into per-layer edge lists
(:mod:`repro.neat.compiled`) and rolls the slice's episodes out in
lockstep, so large populations batch *within* processes while sharding
*across* them.  Seeds still come from the parent with the serial
formula, so all four paths (serial/pooled × scalar/numpy) agree.

``task_transport="shm"`` additionally moves the per-generation genome
payload out of the pool's task pipe: chunks are staged once in a
shared-memory segment and workers unpickle them in place (see
:data:`TASK_TRANSPORTS`).  Transport changes how bytes travel, never
what is computed — fitnesses stay bit-identical.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..envs.evaluate import EvaluationTotals, FitnessEvaluator, run_episode
from ..envs.registry import make
from ..envs.seeding import episode_seed
from ..neat.compiled import BatchedEvaluator, evaluate_genomes_batched
from ..neat.config import NEATConfig
from ..neat.genome import Genome
from ..neat.network import FeedForwardNetwork
from .spec import VECTORIZERS

#: How tasks travel from the parent to pool workers.  ``pickle`` is the
#: classic ``pool.map`` argument path (each chunk pickled into the task
#: pipe); ``shm`` stages the pickled chunks in one
#: :class:`multiprocessing.shared_memory.SharedMemory` segment per
#: generation, so only tiny ``(name, offset, length)`` descriptors cross
#: the pipe and workers deserialize straight out of the mapping —
#: zero-copy transport for large populations.  The default comes from the
#: ``REPRO_TASK_TRANSPORT`` environment variable (``pickle`` if unset);
#: results are bit-identical either way.
TASK_TRANSPORTS = ("pickle", "shm")
TASK_TRANSPORT_ENV_VAR = "REPRO_TASK_TRANSPORT"


def _resolve_task_transport(task_transport: Optional[str]) -> str:
    if task_transport is None:
        task_transport = os.environ.get(TASK_TRANSPORT_ENV_VAR) or "pickle"
    if task_transport not in TASK_TRANSPORTS:
        raise ValueError(
            f"unknown task transport {task_transport!r}; "
            f"known: {TASK_TRANSPORTS}"
        )
    return task_transport


# Per-worker state, populated by the pool initializer: one env per
# process, plus the genome config (shipped once, not once per task).
_WORKER_ENV = None
_WORKER_ENV_ID = None
_WORKER_ENV_BATCH = None
_WORKER_MAX_STEPS = None
_WORKER_GENOME_CONFIG = None
_WORKER_SCENARIO = None


def _init_worker(
    env_id: str, max_steps: Optional[int], genome_config, scenario=None
) -> None:
    global _WORKER_ENV, _WORKER_ENV_ID, _WORKER_ENV_BATCH
    global _WORKER_MAX_STEPS, _WORKER_GENOME_CONFIG, _WORKER_SCENARIO
    if scenario is not None:
        from ..scenarios import build_env

        _WORKER_ENV = build_env(scenario)
    else:
        _WORKER_ENV = make(env_id)
    _WORKER_ENV_ID = env_id
    _WORKER_ENV_BATCH = None
    _WORKER_MAX_STEPS = max_steps
    _WORKER_GENOME_CONFIG = genome_config
    _WORKER_SCENARIO = scenario


def _evaluate_genome(task) -> Tuple[int, List[float], int, int]:
    """Roll one genome out over its pre-derived episode seeds.

    Returns ``(genome_key, rewards, env_steps, inference_macs)``; the
    mean/transform happens in the parent so non-picklable fitness
    transforms keep working.
    """
    genome, seeds = task
    network = FeedForwardNetwork.create(genome, _WORKER_GENOME_CONFIG)
    rewards: List[float] = []
    steps = 0
    macs = 0
    for seed_value in seeds:
        _WORKER_ENV.seed(seed_value)
        result = run_episode(network, _WORKER_ENV, _WORKER_MAX_STEPS)
        rewards.append(result.total_reward)
        steps += result.steps
        macs += result.inference_macs
    return genome.key, rewards, steps, macs


def _evaluate_chunk_vectorized(chunk) -> List[Tuple[int, List[float], int, int]]:
    """Batch-evaluate a contiguous population slice inside one worker."""
    global _WORKER_ENV_BATCH
    if _WORKER_ENV_BATCH is None:
        if _WORKER_SCENARIO is not None:
            from ..scenarios import build_batched_env

            _WORKER_ENV_BATCH = build_batched_env(_WORKER_SCENARIO)
        else:
            from ..envs.batched import make_batched

            _WORKER_ENV_BATCH = make_batched(_WORKER_ENV_ID)
    # Forked workers inherit the parent's installed tracer (the path,
    # not a shared handle), so chunk spans land in the same telemetry
    # file tagged with the worker's pid.
    with obs.span("parallel.chunk", genomes=len(chunk)):
        return evaluate_genomes_batched(
            chunk,
            _WORKER_GENOME_CONFIG,
            _WORKER_ENV_BATCH,
            max_steps=_WORKER_MAX_STEPS,
            scalar_env=_WORKER_ENV,
        )


def _attach_untracked(name: str):
    """Attach to an existing shared-memory segment without registering it
    with the resource tracker.

    The parent owns the segment's lifetime (it unlinks after the map);
    attach-side registration would make worker trackers warn about an
    already-unlinked "leak" — or, when the tracker is shared across the
    fork, double-unregister the parent's entry.  Python 3.13 exposes
    ``track=False`` for exactly this; earlier versions need the register
    call shimmed out for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *_args, **_kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _evaluate_chunk_shm(descriptor) -> List[Tuple[int, List[float], int, int]]:
    """Deserialize one chunk straight out of shared memory and run it.

    ``descriptor`` is ``(segment_name, offset, length, vectorized)``; the
    pickled chunk is read through a memoryview of the mapping (no copy
    into the task pipe, no intermediate bytes object).
    """
    name, offset, length, vectorized = descriptor
    segment = _attach_untracked(name)
    try:
        view = segment.buf[offset : offset + length]
        try:
            chunk = pickle.loads(view)
        finally:
            del view  # release the exported view so close() can unmap
    finally:
        segment.close()
    if vectorized:
        return _evaluate_chunk_vectorized(chunk)
    return [_evaluate_genome(task) for task in chunk]


class ParallelFitnessEvaluator:
    """Drop-in replacement for :class:`FitnessEvaluator` using a pool.

    Same constructor surface plus ``workers``; same callable protocol
    (``evaluator(genomes, config)``); same ``totals`` accounting.  Call
    :meth:`close` (or use as a context manager) to release the pool —
    the experiment runner does this automatically.
    """

    def __init__(
        self,
        env_id: str,
        episodes: int = 1,
        max_steps: Optional[int] = None,
        seed: Optional[int] = 0,
        fitness_transform: Optional[Callable[[float], float]] = None,
        workers: int = 2,
        vectorizer: str = "scalar",
        start_generation: int = 0,
        task_transport: Optional[str] = None,
        scenario=None,
    ) -> None:
        if workers < 2:
            raise ValueError("ParallelFitnessEvaluator needs workers >= 2; "
                             "use FitnessEvaluator for serial evaluation")
        if vectorizer not in VECTORIZERS:
            raise ValueError(
                f"unknown vectorizer {vectorizer!r}; known: {VECTORIZERS}"
            )
        self.task_transport = _resolve_task_transport(task_transport)
        self.env_id = env_id
        self.episodes = episodes
        self.max_steps = max_steps
        self.seed = seed
        self.fitness_transform = fitness_transform
        self.workers = workers
        self.vectorizer = vectorizer
        #: frozen dataclass — pickles into the pool initializer cleanly
        self.scenario = scenario
        self.totals = EvaluationTotals()
        # Episode seeds derive from the generation index, so a resumed
        # run must restart the counter where the checkpoint left off.
        self._generation = start_generation
        self._pool = None
        self._pool_genome_config = None

    def _ensure_pool(self, genome_config):
        # The genome config is baked into the workers at pool creation;
        # if a caller re-uses this evaluator with a different config
        # (rare), rebuild the pool rather than evaluate against stale
        # structural parameters.
        if self._pool is not None and genome_config != self._pool_genome_config:
            self.close()
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.env_id, self.max_steps, genome_config, self.scenario
                ),
            )
            self._pool_genome_config = genome_config
        return self._pool

    def _episode_seeds(self, genome: Genome) -> List[int]:
        # The one canonical derivation — parity is load-bearing: serial
        # and parallel runs must see identical episode streams.
        return [
            episode_seed(self.seed, self._generation, genome.key, episode)
            for episode in range(self.episodes)
        ]

    def _chunks(self, tasks: List) -> List[List]:
        """Contiguous slices, one per worker — the numpy-vectorizer and
        shared-memory paths shard identically, so outcomes concatenate
        back in input order."""
        bounds = [
            (len(tasks) * w) // self.workers for w in range(self.workers + 1)
        ]
        return [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def _map_via_shared_memory(self, pool, tasks: List):
        """Ship task chunks through one shared-memory segment.

        The chunks are pickled once into a single mapping; workers get
        ``(name, offset, length, vectorized)`` descriptors and unpickle
        in place, so the per-generation genome payload never rides the
        pool's task pipe.  The segment lives only for the duration of
        the map (unlinked in the parent once results are back).
        """
        from multiprocessing import shared_memory

        chunks = self._chunks(tasks)
        with obs.span("parallel.shm_stage", chunks=len(chunks)) as sp:
            blobs = [
                pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
                for chunk in chunks
            ]
            total = sum(len(blob) for blob in blobs)
            sp.set(bytes=total)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, total)
            )
        try:
            descriptors = []
            offset = 0
            vectorized = self.vectorizer == "numpy"
            for blob in blobs:
                segment.buf[offset : offset + len(blob)] = blob
                descriptors.append(
                    (segment.name, offset, len(blob), vectorized)
                )
                offset += len(blob)
            chunk_results = pool.map(_evaluate_chunk_shm, descriptors)
        finally:
            segment.close()
            segment.unlink()
        return [
            outcome for chunk_result in chunk_results for outcome in chunk_result
        ]

    def __call__(self, genomes: List[Genome], config: NEATConfig) -> None:
        pool = self._ensure_pool(config.genome)
        tasks = [
            (genome, self._episode_seeds(genome)) for genome in genomes
        ]
        with obs.span(
            "parallel.map",
            workers=self.workers,
            genomes=len(tasks),
            transport=self.task_transport,
            vectorizer=self.vectorizer,
        ):
            if self.task_transport == "shm":
                outcomes = self._map_via_shared_memory(pool, tasks)
            elif self.vectorizer == "numpy":
                # Contiguous slices, one per worker: each slice is
                # compiled, stacked and rolled out in lockstep inside
                # its process.
                outcomes = [
                    outcome
                    for chunk_result in pool.map(
                        _evaluate_chunk_vectorized, self._chunks(tasks)
                    )
                    for outcome in chunk_result
                ]
            else:
                outcomes = pool.map(_evaluate_genome, tasks)
        for genome, (key, rewards, steps, macs) in zip(genomes, outcomes):
            if key != genome.key:  # pool.map preserves order; belt and braces
                raise RuntimeError(
                    f"parallel evaluation order mismatch: {key} != {genome.key}"
                )
            fitness = sum(rewards) / len(rewards)
            if self.fitness_transform is not None:
                fitness = self.fitness_transform(fitness)
            genome.fitness = fitness
            self.totals.episodes += len(rewards)
            self.totals.steps += steps
            self.totals.macs += macs
        self._generation += 1

    def close(self) -> None:
        """Release the pool; idempotent (safe to call repeatedly, and
        after ``__del__`` already tore the pool down)."""
        pool, self._pool = self._pool, None
        self._pool_genome_config = None
        if pool is not None:
            pool.close()
            pool.join()

    def __enter__(self) -> "ParallelFitnessEvaluator":
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


def build_evaluator(
    env_id: str,
    episodes: int = 1,
    max_steps: Optional[int] = None,
    seed: Optional[int] = 0,
    fitness_transform: Optional[Callable[[float], float]] = None,
    workers: int = 1,
    vectorizer: str = "scalar",
    start_generation: int = 0,
    task_transport: Optional[str] = None,
    scenario=None,
) -> Union[FitnessEvaluator, ParallelFitnessEvaluator, BatchedEvaluator]:
    """The evaluator for a (workers, vectorizer) combination.

    ``workers=1`` stays in-process (scalar node-by-node walk, or the
    compiled numpy batch engine); ``workers>1`` shards the population
    over a pool, vectorizing within each worker when asked.  All four
    combinations produce identical fitnesses for a fixed seed.

    ``start_generation`` pre-advances the evaluator's generation counter
    so a run resumed from a checkpoint replays the exact episode-seed
    stream the uninterrupted run would have seen (every evaluator
    derives seeds through :func:`repro.envs.seeding.episode_seed`).

    ``task_transport`` selects how pooled workers receive their tasks
    (see :data:`TASK_TRANSPORTS`); it only applies to ``workers>1`` and
    defaults to the ``REPRO_TASK_TRANSPORT`` environment variable.
    """
    if vectorizer not in VECTORIZERS:
        raise ValueError(
            f"unknown vectorizer {vectorizer!r}; known: {VECTORIZERS}"
        )
    if workers <= 1:
        cls = BatchedEvaluator if vectorizer == "numpy" else FitnessEvaluator
        return cls(
            env_id,
            episodes=episodes,
            max_steps=max_steps,
            seed=seed,
            fitness_transform=fitness_transform,
            start_generation=start_generation,
            scenario=scenario,
        )
    return ParallelFitnessEvaluator(
        env_id,
        episodes=episodes,
        max_steps=max_steps,
        seed=seed,
        fitness_transform=fitness_transform,
        workers=workers,
        vectorizer=vectorizer,
        start_generation=start_generation,
        task_transport=task_transport,
        scenario=scenario,
    )
