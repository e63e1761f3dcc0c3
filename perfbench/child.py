"""One leg of one workload, in a fresh process.

``run.py`` starts this script once per leg, so interpreter
start and imports are part of what is measured.  It records when the
first generation starts and when each generation ends (through the
public ``on_generation`` observer), checks nothing itself, and writes
what ``run.py`` needs to time and check the run to ``--out`` as JSON.

Without ``--trace`` it also gauges the host's speed between generations
(see :class:`Marks`); ``run.py`` scales the run's times by it.

With ``--trace`` it also wraps the public calls of each layer in spans
(see ``spans.py``) and writes them, once, next to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from spans import Tracer, loaded_modules, rebind
from workloads import WORKLOADS, spec_fields


#: How long each calibration burst lasts.
CALIBRATION_S = 0.005


def calibration_unit() -> int:
    """A fixed piece of pure-Python work that gauges the host's speed."""
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


def calibrate() -> float:
    """The median time of :func:`calibration_unit` over one short burst."""
    times = []
    stop = time.perf_counter() + CALIBRATION_S
    while time.perf_counter() < stop:
        t = time.perf_counter()
        calibration_unit()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Marks:
    """Host-time marks of one process: generation starts and ends.

    In an untraced run, a calibration burst before the first generation
    and after each one gauges the host's speed; the next generation's
    time starts after it, and no reported interval includes it.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.calibrating = tracer is None
        self.first_start: Optional[float] = None
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.env_steps = 0
        self.calibrations: List[float] = []
        #: Time spent in calibration bursts: before the first generation,
        #: and in all.
        self.first_burst_s = 0.0
        self.bursts_s = 0.0

    def burst(self) -> float:
        """Calibrate, in an untraced run; return when it ended."""
        t = time.perf_counter()
        if self.calibrating:
            self.calibrations.append(calibrate())
        end = time.perf_counter()
        self.bursts_s += end - t
        return end

    def generation_started(self, generation: int) -> None:
        if self.first_start is None:
            self.first_start = self.burst()
            self.first_burst_s = self.bursts_s
            self.starts.append(self.first_start)
        if self.tracer is not None:
            self.tracer.generation = generation

    def on_generation(self, metrics) -> None:
        self.ends.append(time.perf_counter())
        self.env_steps += metrics.env_steps
        self.starts.append(self.burst())


def hook_generation_start(marks: Marks) -> None:
    """Mark the start of every generation on both generation loops."""
    from repro.core.soc import GeneSysSoC
    from repro.neat.population import Population

    for cls in (Population, GeneSysSoC):
        original = cls.run_generation

        def run_generation(self, *args, _original=original, **kwargs):
            marks.generation_started(self.generation)
            return _original(self, *args, **kwargs)

        cls.run_generation = run_generation


def _after(fn: Callable, record: Callable[[Any], None]) -> Callable:
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(result)
        return result

    return call


def install_layers(tracer: Tracer, counts: Dict[str, float]) -> None:
    """Wrap each layer's public calls in spans, where callers look them up.

    Hot inner calls (``process_pair``, the PRNG) are not wrapped; their
    work is read from the simulated counters instead.
    """
    from repro.core.soc import GeneSysSoC  # noqa: F401  (binds soc imports)
    from repro.envs import batched, evaluate
    from repro.hw import adam, gene_encoding
    from repro.hw.eve import EvolutionEngine
    from repro.hw.selector import GeneSelector
    from repro.neat import compiled, serialize
    from repro.neat.genome import Genome
    from repro.neat.population import Population
    from repro.neat.reproduction import Reproduction
    from repro.neat.species import SpeciesSet
    from repro.runs.artifacts import RunDir

    modules = loaded_modules("repro")

    def function(name: str, original: Callable, fn: Optional[Callable] = None) -> None:
        wrapped = tracer.wrap(name, fn or original)
        if rebind(original, wrapped, modules) == 0:
            raise RuntimeError(f"no module binds {original.__qualname__}")

    def method(name: str, cls: type, attr: str, post=None) -> None:
        original = cls.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if post is not None:
            fn = _after(fn, post)
        wrapped = tracer.wrap(name, fn)
        setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def bump(key: str, amount: float) -> None:
        counts[key] = counts.get(key, 0) + amount

    method("neat.population.init", Population, "__init__")
    method("neat.population.init", Population, "from_state")
    method("neat.species.speciate", SpeciesSet, "speciate")
    method(
        "neat.reproduction.reproduce", Reproduction, "reproduce",
        post=lambda out: bump("neat.reproduction.children", len(out[0])),
    )
    function("neat.compiled.compile", compiled.compile_network)

    def rollout_done(episodes) -> None:
        # The loop dispatches one batched step per iteration until the
        # longest lane ends, each over every lane it started with.
        dispatches = max((e.steps for e in episodes), default=0)
        bump("rollout.lane_slots", dispatches * len(episodes))
        bump("rollout.episode_steps", sum(e.steps for e in episodes))

    function(
        "envs.rollout", evaluate.run_episodes_batched,
        _after(evaluate.run_episodes_batched, rollout_done),
    )
    pending = [batched.BatchedEnv]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in cls.__dict__ and cls is not batched.BatchedEnv:
            method("envs.batched.step", cls, "step")
    method("neat.compiled.lane_step", compiled.LaneRunner, "step")

    method("hw.selector.select", GeneSelector, "select")

    method("hw.eve.reproduce", EvolutionEngine, "reproduce_generation")
    function("hw.gene_encoding.encode", gene_encoding.encode_genome)
    function("hw.gene_encoding.decode", gene_encoding.decode_genome)
    function("hw.adam.plan", adam.build_inference_plan)
    method("hw.adam.charge", adam.StackedAdamEnvelope, "charge")

    function("neat.serialize.to_state", serialize.population_to_state)
    function("neat.serialize.from_state", serialize.population_from_state)

    def checkpoint_written(path) -> None:
        bump("runs.checkpoints", 1)
        bump("runs.checkpoint_bytes_total", os.path.getsize(path))

    method(
        "runs.artifacts.write_checkpoint", RunDir, "write_checkpoint",
        post=checkpoint_written,
    )
    method("runs.artifacts.load_checkpoint", RunDir, "load_checkpoint")
    method("runs.artifacts.append_metrics", RunDir, "append_metrics")

    # Counted, not spanned: speciation calls it for every genome pair it
    # compares, so a span each would dominate the traced time.
    distance = Genome.distance

    def counted_distance(self, other, config):
        counts["neat.genome.distance.calls"] = (
            counts.get("neat.genome.distance.calls", 0) + 1
        )
        return distance(self, other, config)

    Genome.distance = counted_distance


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
        h.update(b"\0")
    return h.hexdigest()


def simulated_totals(result) -> Dict[str, Any]:
    """The soc model's simulated statistics; identical on every repeat."""
    reports = result.reports or []
    return {
        "cycles": result.total_cycles,
        "energy_j": result.total_energy_j,
        "sram_reads": sum(r.energy.sram_reads for r in reports),
        "sram_writes": sum(r.energy.sram_writes for r in reports),
        "eve_gene_pairs": sum(r.evolution.pe_stats.genes_in for r in reports),
        "eve_waves": sum(r.evolution.waves for r in reports),
        "eve_pe_cycles": sum(r.energy.eve_pe_cycles for r in reports),
        "adam_macs": sum(r.inference.macs for r in reports),
        "adam_dense_macs": sum(r.inference.dense_macs for r in reports),
        "noc_gene_hops": sum(r.energy.noc_gene_hops for r in reports),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--leg", required=True,
                        choices=("full", "first", "resume", "reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter reading taken just before this "
                             "process was started")
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-dir")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id) if args.trace else None
    counts: Dict[str, float] = {}
    if tracer is not None:
        span = tracer.open("import")
    import repro.cli  # noqa: F401  (what a `repro` user pays at start-up)
    from repro.api import Experiment, ExperimentSpec
    from repro.neat.serialize import genome_to_dict
    from repro.runs import run_in_dir
    if tracer is not None:
        tracer.close(span)

    marks = Marks(tracer)
    hook_generation_start(marks)
    if tracer is not None:
        install_layers(tracer, counts)

    spec = ExperimentSpec(**spec_fields(args.workload, args.seed))
    budget = WORKLOADS[args.workload]["generations"]
    if args.leg == "full":
        result = Experiment(spec).run(on_generation=marks.on_generation)
    elif args.leg == "first":
        result = run_in_dir(
            spec, args.run_dir, checkpoint_every=1,
            should_stop=lambda done: done >= budget // 2,
            on_generation=marks.on_generation,
        )
    elif args.leg == "resume":
        result = run_in_dir(
            None, args.run_dir, resume=True, on_generation=marks.on_generation
        )
    else:
        result = run_in_dir(
            spec, args.run_dir, checkpoint_every=1,
            on_generation=marks.on_generation,
        )
    end = time.perf_counter()

    rows = [m.to_dict() for m in result.metrics]
    out: Dict[str, Any] = {
        "t0": args.t0,
        "end": end,
        "setup_s": marks.first_start - marks.first_burst_s - args.t0,
        "wall_s": end - args.t0 - marks.bursts_s,
        "gen_s": [b - a for a, b in zip(marks.starts, marks.ends)],
        "calibration_s": (
            statistics.median(marks.calibrations) if marks.calibrations else None
        ),
        "env_steps": marks.env_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "generations": result.generations,
        "stopped_early": result.stopped_early,
        "rows": rows,
        "digest": digest({"rows": rows, "champion": genome_to_dict(result.champion)}),
        "counts": counts,
    }
    if spec.backend == "soc":
        out["sim"] = simulated_totals(result)
    if args.run_dir is not None:
        out["artifact_digest"] = file_digest(
            os.path.join(args.run_dir, "metrics.jsonl"),
            os.path.join(args.run_dir, "champion.json"),
        )
    if tracer is not None:
        out["spans_file"] = args.out + ".spans.json"
        tracer.dump(out["spans_file"])
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(out, handle, allow_nan=True)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
