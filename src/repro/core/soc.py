"""The GeneSys SoC: EvE + ADAM + Genome Buffer + System CPU.

Implements the walkthrough of Section IV-B.  One call to
:meth:`GeneSysSoC.run_generation` performs:

1.  map genomes from the Genome Buffer onto ADAM,
2-5. roll out each genome against its environment instance, one packed
    matrix-vector wave at a time, until the episode completes,
6.  translate cumulative reward into fitness and augment it to the genome
    in SRAM,
7.  run the Gene Selector (software thread) to pick parents,
8-9. stream parent genes through the EvE PEs (crossover + mutations),
10. merge child genes and write the next generation back to the buffer.

All hardware counters (cycles, SRAM accesses, NoC reads, MACs) feed the
:class:`repro.hw.energy.EnergyLedger` so per-generation runtime and energy
match what the platform comparison (Fig. 9/10) reports for GENESYS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .. import obs as telemetry
from ..envs.base import Environment
from ..envs.evaluate import action_from_outputs, run_episodes_batched
from ..envs.registry import make
from ..envs.seeding import derive_seed
from ..hw.adam import (
    ADAM,
    InferenceStats,
    StackedAdamEnvelope,
    build_inference_plan,
)
from ..hw.energy import EnergyLedger, cycles_to_seconds
from ..hw.eve import EvolutionEngine, EvolutionResult
from ..hw.gene_encoding import decode_genome, encode_genome
from ..hw.selector import GeneSelector
from ..hw.sram import GenomeBuffer
from ..neat.genome import Genome
from ..neat.reproduction import Reproduction
from .config import GeneSysConfig

EnvFactory = Callable[[], Environment]


@dataclass
class GenerationReport:
    """Everything measured while producing one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    num_species: int
    num_genes: int
    footprint_bytes: int
    inference: InferenceStats
    evolution: EvolutionResult
    env_steps: int
    inference_cycles: int
    evolution_cycles: int
    energy: EnergyLedger
    fittest_parent_reuse: int

    @property
    def inference_seconds(self) -> float:
        return cycles_to_seconds(self.inference_cycles)

    @property
    def evolution_seconds(self) -> float:
        return cycles_to_seconds(self.evolution_cycles)


class GeneSysSoC:
    """Functional + cycle/energy model of the full chip."""

    def __init__(
        self,
        config: GeneSysConfig,
        env_id: str,
        episodes: int = 1,
        max_steps: Optional[int] = None,
        vectorize: bool = True,
    ) -> None:
        self.config = config
        self.env_id = env_id
        self.episodes = episodes
        self.max_steps = max_steps
        #: Population-batched evaluation: functional rollouts run as
        #: lockstep numpy lanes (:mod:`repro.neat.compiled`) and the ADAM
        #: counters are charged through one
        #: :class:`repro.hw.adam.StackedAdamEnvelope` — bit-identical to
        #: the serial per-genome walk, just vectorised.
        self.vectorize = vectorize
        self._env_batch = None
        self.buffer = GenomeBuffer(config.sram)
        self.adam = ADAM(config.adam)
        eve_config = config.eve
        eve_config.pe = config.pe_config_from_neat()
        self.eve = EvolutionEngine(eve_config)
        self.selector = GeneSelector(config.neat, seed=config.seed)
        self.rng = random.Random(config.seed)
        self.population: Dict[int, Genome] = {}
        self.generation = 0
        self.best_genome: Optional[Genome] = None
        self.reports: List[GenerationReport] = []

    # ------------------------------------------------------------------

    def initialise_population(self) -> None:
        """CPU boot: create generation 0 and load it into the buffer."""
        self.population = self.selector.reproduction.create_initial_population(self.rng)
        self.buffer.clear()
        for key, genome in self.population.items():
            self.buffer.write_genome(key, encode_genome(genome, self.config.neat.genome))

    # -- steps 1-6: inference + fitness -----------------------------------

    def evaluate_population(self) -> int:
        """Run every genome against the environment; returns env steps."""
        if self.vectorize:
            return self._evaluate_population_batched()
        return self._evaluate_population_serial()

    def _episode_seed(self, key: int, episode: int) -> int:
        # The one canonical SoC derivation — serial and batched paths
        # must see identical episode streams.
        return derive_seed(
            self.config.seed,
            (self.generation * 1_000_003 + key) * 17 + episode,
        )

    def _evaluate_population_serial(self) -> int:
        with telemetry.span(
            "soc.evaluate_serial",
            generation=self.generation,
            genomes=len(self.population),
        ):
            return self._evaluate_population_serial_inner()

    def _evaluate_population_serial_inner(self) -> int:
        env = make(self.env_id)
        genome_cfg = self.config.neat.genome
        total_steps = 0
        for key in sorted(self.population):
            genome = self.population[key]
            # Step 1: genomes are read from the buffer and mapped on ADAM.
            stream = self.buffer.read_genome(key)
            resident = decode_genome(stream, key, genome_cfg)
            plan = build_inference_plan(resident, genome_cfg)
            rewards = []
            for episode in range(self.episodes):
                env.seed(self._episode_seed(key, episode))
                rewards.append(self._run_episode(plan, env))
                total_steps += self._episode_steps
            fitness = sum(rewards) / len(rewards)
            # Step 6: fitness augmented to the genome in SRAM.
            self.buffer.set_fitness(key, fitness)
            genome.fitness = fitness
        return total_steps

    def _evaluate_population_batched(self) -> int:
        """Steps 1-6 for the whole population at once.

        Functional rollouts go through the compiled lockstep lanes
        (:mod:`repro.neat.compiled`) — every (genome, episode) pair is a
        lane of one batched environment — while the hardware counters are
        charged exactly through a :class:`StackedAdamEnvelope` (per-pass
        costs are static per plan, so cost = per-pass x steps in pure
        integer arithmetic).  Genomes the compiler cannot express
        fall back to the serial ADAM walk on the same seeds.
        """
        from ..neat.compiled import CompileError, StackedPlans, compile_network

        genome_cfg = self.config.neat.genome
        keys = sorted(self.population)
        plans = {}
        compiled = {}
        with telemetry.span(
            "soc.compile", generation=self.generation, genomes=len(keys)
        ) as sp:
            for key in keys:
                # Step 1: genomes are read from the buffer and mapped on
                # ADAM.
                stream = self.buffer.read_genome(key)
                resident = decode_genome(stream, key, genome_cfg)
                plans[key] = build_inference_plan(resident, genome_cfg)
                try:
                    compiled[key] = compile_network(resident, genome_cfg)
                except CompileError:
                    pass
            sp.set(compiled=len(compiled))

        rewards_by_key: Dict[int, List[float]] = {}
        steps_by_key: Dict[int, List[int]] = {}
        batched_keys = [k for k in keys if k in compiled]
        if batched_keys:
            if self._env_batch is None:
                from ..envs.batched import make_batched

                self._env_batch = make_batched(self.env_id)
            stacked = StackedPlans([compiled[k] for k in batched_keys])
            lane_plans: List[int] = []
            lane_seeds: List[int] = []
            for slot, key in enumerate(batched_keys):
                for episode in range(self.episodes):
                    lane_plans.append(slot)
                    lane_seeds.append(self._episode_seed(key, episode))
            with telemetry.span(
                "soc.rollout",
                genomes=len(batched_keys),
                lanes=len(lane_seeds),
            ):
                episodes = run_episodes_batched(
                    stacked.lane_runner(lane_plans),
                    self._env_batch,
                    lane_seeds,
                    max_steps=self.max_steps,
                )
            cursor = 0
            for key in batched_keys:
                lane_results = episodes[cursor : cursor + self.episodes]
                cursor += self.episodes
                rewards_by_key[key] = [r.total_reward for r in lane_results]
                steps_by_key[key] = [r.steps for r in lane_results]
            # Steps 2-5 cost accounting: every env step is one forward
            # pass of that genome's plan.
            with telemetry.span(
                "soc.envelope_charge", genomes=len(batched_keys)
            ):
                envelope = StackedAdamEnvelope(
                    [plans[k] for k in batched_keys], self.adam.config
                )
                envelope.charge(
                    self.adam.stats,
                    [sum(steps_by_key[k]) for k in batched_keys],
                )

        fallback_keys = [k for k in keys if k not in compiled]
        if fallback_keys:
            env = make(self.env_id)
            with telemetry.span("soc.fallback", genomes=len(fallback_keys)):
                for key in fallback_keys:
                    rewards: List[float] = []
                    steps: List[int] = []
                    for episode in range(self.episodes):
                        env.seed(self._episode_seed(key, episode))
                        rewards.append(self._run_episode(plans[key], env))
                        steps.append(self._episode_steps)
                    rewards_by_key[key] = rewards
                    steps_by_key[key] = steps

        total_steps = 0
        for key in keys:
            rewards = rewards_by_key[key]
            fitness = sum(rewards) / len(rewards)
            # Step 6: fitness augmented to the genome in SRAM.
            self.buffer.set_fitness(key, fitness)
            self.population[key].fitness = fitness
            total_steps += sum(steps_by_key[key])
        return total_steps

    def _run_episode(self, plan, env: Environment) -> float:
        """Steps 2-5 for one episode; tracks steps in _episode_steps."""
        obs = env.reset()
        total_reward = 0.0
        steps = 0
        limit = self.max_steps if self.max_steps is not None else env.max_episode_steps
        for _ in range(limit):
            outputs = self.adam.run(plan, obs.ravel().tolist())
            action = action_from_outputs(outputs, env)
            obs, reward, done, _info = env.step(action)
            total_reward += reward
            steps += 1
            if done:
                break
        self._episode_steps = steps
        return total_reward

    # -- steps 7-10: selection + evolution ------------------------------------

    def evolve_population(self) -> Optional[EvolutionResult]:
        """Select parents on the CPU, reproduce on EvE, refresh the buffer."""
        outcome = self.selector.select(self.population, self.buffer, self.generation)
        self._last_selection = outcome
        if outcome.plan is None:
            # Complete extinction: the CPU re-seeds a fresh population.
            self.initialise_population()
            return None
        result = self.eve.reproduce_generation(
            self.buffer, outcome.plan.events, outcome.plan.elite_keys
        )
        genome_cfg = self.config.neat.genome
        new_population: Dict[int, Genome] = {}
        for child_key, stream in result.children.items():
            new_population[child_key] = decode_genome(stream, child_key, genome_cfg)
        # Retire the previous generation from the buffer ("overwriting the
        # genomes from the previous generation", step 10).
        for old_key in list(self.buffer.resident_genomes()):
            if old_key not in new_population:
                self.buffer.delete_genome(old_key)
        self.population = new_population
        self._last_plan = outcome.plan
        return result

    # -- one full generation ----------------------------------------------------

    def run_generation(self) -> GenerationReport:
        if not self.population:
            self.initialise_population()

        sram_before = self.buffer.stats.total_accesses
        env_steps = self.evaluate_population()
        inference = self.adam.reset_stats()

        fitnesses = {k: g.fitness for k, g in self.population.items()}
        best_key = max(fitnesses, key=fitnesses.get)
        best_fitness = fitnesses[best_key]
        mean_fitness = sum(fitnesses.values()) / len(fitnesses)
        if (
            self.best_genome is None
            or (self.best_genome.fitness or float("-inf")) < best_fitness
        ):
            self.best_genome = self.population[best_key].copy()
        num_genes = sum(g.num_genes for g in self.population.values())

        with telemetry.span("soc.evolve", generation=self.generation):
            evolution = self.evolve_population()
        if evolution is None:
            evolution = EvolutionResult()
        plan = getattr(self, "_last_plan", None)
        reuse = plan.fittest_parent_reuse(fitnesses) if plan is not None else 0

        ledger = EnergyLedger(
            eve_pe_cycles=evolution.pe_stats.busy_cycles,
            adam_macs=inference.macs,
            sram_reads=self.buffer.stats.reads,
            sram_writes=self.buffer.stats.writes,
            dram_accesses=self.buffer.stats.dram_reads + self.buffer.stats.dram_writes,
            noc_gene_hops=evolution.noc_stats.genes_delivered,
            m0_cycles=self._last_selection.cpu_cycles + inference.vectorize_cycles,
        )
        self.buffer.reset_stats()

        report = GenerationReport(
            generation=self.generation,
            best_fitness=best_fitness,
            mean_fitness=mean_fitness,
            num_species=self._last_selection.num_species,
            num_genes=num_genes,
            footprint_bytes=self.buffer.bytes_used,
            inference=inference,
            evolution=evolution,
            env_steps=env_steps,
            inference_cycles=inference.total_cycles,
            evolution_cycles=evolution.cycles,
            energy=ledger,
            fittest_parent_reuse=reuse,
        )
        self.reports.append(report)
        self.generation += 1
        return report

    def run(
        self,
        max_generations: int = 50,
        fitness_threshold: Optional[float] = None,
    ) -> Genome:
        """Closed-loop evolution until target fitness (the paper's stop
        criterion) or the generation budget."""
        threshold = (
            fitness_threshold
            if fitness_threshold is not None
            else self.config.neat.fitness_threshold
        )
        for _ in range(max_generations):
            report = self.run_generation()
            if threshold is not None and report.best_fitness >= threshold:
                break
        if self.best_genome is None:
            raise RuntimeError("no generations were evaluated")
        return self.best_genome
