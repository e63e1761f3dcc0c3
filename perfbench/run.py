"""The repository benchmark: one command, three NEAT/EvE workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload evolve-cartpole --seed 0 --seconds 40 --trace 0

It starts one fresh child process per run leg (``child.py``), so
interpreter start and imports count.  It keeps starting runs until
``--seconds`` have passed, checks every run's output, and prints every
metric named in ``BENCHMARK.json`` with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced runs: the
median over the runs of each timing, scaled to a reference host speed
by calibration bursts the child runs between generations (see
:func:`scaled`).
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the fastest traced run; its
layer self times plus ``other.self_s`` add up to ``trace.wall_s``.

It exits non-zero without a result when the program cannot be imported
or no run completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import layer_self_times, outermost_calls, self_times, with_root  # noqa: E402
from workloads import POP_SIZE, WORKLOADS, program_seeds  # noqa: E402

ROOT = os.path.dirname(HERE)
#: A run that is still going this long after the benchmark started is
#: killed, so the benchmark always ends within three minutes.
HARD_LIMIT_S = 170.0
#: The host speed end-to-end timings are scaled to: one on which the
#: child's calibration unit takes this long (about its time on the 2-vCPU
#: machine the benchmark was tuned on, when undisturbed).
REFERENCE_UNIT_S = 60e-6

# Span names whose self time is reported as ``<name>.self_s``.
SELF_TIME_LAYERS = (
    "neat.population.init",
    "neat.species.speciate",
    "neat.reproduction.reproduce",
    "neat.compiled.compile",
    "envs.rollout",
    "envs.batched.step",
    "neat.compiled.lane_step",
    "hw.selector.select",
    "hw.eve.reproduce",
    "hw.gene_encoding.encode",
    "hw.gene_encoding.decode",
    "hw.adam.plan",
    "hw.adam.charge",
    "neat.serialize.to_state",
    "neat.serialize.from_state",
    "runs.artifacts.write_checkpoint",
    "runs.artifacts.load_checkpoint",
    "runs.artifacts.append_metrics",
)
CALL_COUNTS = (
    "neat.species.speciate",
    "neat.compiled.compile",
    "envs.batched.step",
    "hw.gene_encoding.decode",
    "hw.adam.plan",
)


class RunFailed(Exception):
    """A run exited non-zero or its output failed a check."""


# ---------------------------------------------------------------------------
# running children


class Bench:
    def __init__(self, workload: str, seeds: List[int], work: str) -> None:
        self.workload = workload
        self.spec = WORKLOADS[workload]
        #: The program seeds the runs cycle through.
        self.seeds = seeds
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.counter = 0
        #: First value seen of each output that must repeat exactly, by
        #: program seed.
        self.expected: Dict[Tuple[int, str], Any] = {}

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def child(
        self, leg: str, seed: int, run_dir: Optional[str], trace: bool
    ) -> Dict[str, Any]:
        self.counter += 1
        out = os.path.join(self.work, f"leg-{self.counter}.json")
        run_id = f"{self.workload}-s{seed}-{self.counter}-{leg}"
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--leg", leg, "--seed", str(seed),
            "--out", out, "--run-id", run_id,
        ]
        if run_dir is not None:
            cmd += ["--run-dir", run_dir]
        if trace:
            cmd.append("--trace")
        timeout = self.remaining()
        if timeout <= 0:
            raise RunFailed("out of time before the run started")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{leg} leg killed after {timeout:.0f} s") from None
        if proc.returncode != 0 or not os.path.exists(out):
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise RunFailed(f"{leg} leg exited {proc.returncode}: {tail}")
        with open(out) as handle:
            result = json.load(handle)
        result["leg"] = leg
        result["seed"] = seed
        return result

    # -- output checks ----------------------------------------------------

    def same(self, seed: int, key: str, value: Any) -> None:
        """``value`` must equal the first value recorded under ``key`` for
        program seed ``seed``."""
        first = self.expected.setdefault((seed, key), value)
        if value != first:
            raise RunFailed(f"{key} differs from the first run of seed {seed}")

    def check_leg(self, leg: Dict[str, Any]) -> None:
        budget = self.spec["generations"]
        want = budget // 2 if leg["leg"] == "first" else budget
        if leg["generations"] != want or len(leg["rows"]) != want:
            raise RunFailed(
                f"{leg['leg']} leg ran {leg['generations']} generations "
                f"({len(leg['rows'])} rows), expected {want}"
            )
        if leg["stopped_early"] != (leg["leg"] == "first"):
            raise RunFailed(f"{leg['leg']} leg stopped_early={leg['stopped_early']}")
        lo, hi = self.spec["reward_bounds"]
        for index, row in enumerate(leg["rows"]):
            if row["generation"] != index:
                raise RunFailed(f"row {index} is generation {row['generation']}")
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise RunFailed(f"generation {index}: {key} = {value}")
            if not lo <= row["best_fitness"] <= hi:
                raise RunFailed(
                    f"generation {index}: best_fitness {row['best_fitness']} "
                    f"outside [{lo}, {hi}]"
                )
        self.same(leg["seed"], f"{leg['leg']}.digest", leg["digest"])
        if "sim" in leg:
            self.same(leg["seed"], "sim", leg["sim"])

    # -- one operation ----------------------------------------------------

    def reference(self, seed: int) -> None:
        """An uninterrupted durable run, untimed, that resumed runs of
        ``seed`` must equal."""
        run_dir = os.path.join(self.work, f"reference-{seed}")
        try:
            leg = self.child("reference", seed, run_dir, False)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.check_leg(leg)
        self.expected[seed, "resume.digest"] = leg["digest"]
        self.expected[seed, "resume.artifacts"] = leg["artifact_digest"]

    def operation(self, seed: int, trace: bool) -> Dict[str, Any]:
        """One timed run of the workload; raises RunFailed on a bad output.

        The first run of a program seed on a durable workload is preceded
        by its untimed reference run.
        """
        if self.spec["legs"] == ("full",):
            leg = self.child("full", seed, None, trace)
            self.check_leg(leg)
            legs = [leg]
        else:
            if (seed, "resume.artifacts") not in self.expected:
                self.reference(seed)
            run_dir = os.path.join(self.work, f"run-{self.counter + 1}")
            try:
                first = self.child("first", seed, run_dir, trace)
                self.check_leg(first)
                resumed = self.child("resume", seed, run_dir, trace)
                self.check_leg(resumed)
                self.same(seed, "resume.artifacts", resumed["artifact_digest"])
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            legs = [first, resumed]
        return {"seed": seed, "legs": legs, "setup_s": legs[0]["setup_s"],
                "wall_s": sum(leg["wall_s"] for leg in legs)}


def measure(bench: Bench, seconds: float, trace: bool):
    """Start runs for ``seconds``; return (untraced, traced, attempted, failed).

    The runs cycle through the bench's program seeds.  With ``trace``
    they alternate untraced and traced.  A run that would end past
    ``seconds`` is not started once each kind has a result, judged by the
    duration of the last run of its kind.
    """
    attempted = failed = 0
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    trace_next = False
    last = {False: 0.0, True: 0.0}
    while True:
        elapsed = time.perf_counter() - begin
        enough = untraced and (traced or not trace)
        if enough and elapsed + last[trace_next] > seconds:
            break
        if failed and elapsed >= seconds:
            break
        seed = bench.seeds[attempted % len(bench.seeds)]
        attempted += 1
        started = time.perf_counter()
        try:
            op = bench.operation(seed, trace_next)
        except RunFailed as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
            if bench.remaining() <= 0:
                break
            continue
        last[trace_next] = time.perf_counter() - started
        (traced if trace_next else untraced).append(op)
        trace_next = trace and not trace_next
    return untraced, traced, attempted, failed


# ---------------------------------------------------------------------------
# metrics


def scaled(op: Dict[str, Any]) -> Dict[str, float]:
    """One run's end-to-end timings, scaled to the reference host speed.

    Each leg's times are multiplied by ``REFERENCE_UNIT_S`` over the
    median calibration time measured in that leg, between its
    generations.
    """
    setups, gens, wall, steps = [], [], 0.0, 0
    for leg in op["legs"]:
        factor = REFERENCE_UNIT_S / leg["calibration_s"]
        setups.append(leg["setup_s"] * factor)
        wall += leg["wall_s"] * factor
        gens += [g * factor for g in leg["gen_s"]]
        steps += leg["env_steps"]
    quartiles = statistics.quantiles([g * 1000.0 for g in gens], n=4)
    return {
        "setup_s": setups[0],
        # The start-up latency of the process that finishes the run: the
        # resumed process on a durable workload, the only one otherwise.
        "resume_s": setups[-1],
        "wall_s": wall,
        "gen_ms.p50": quartiles[1],
        "gen_ms.p75": quartiles[2],
        "loop_s": sum(gens),
        "env_steps_per_s": steps / sum(gens),
        "peak_rss_mb": max(leg["peak_rss_mb"] for leg in op["legs"]),
    }


def end_to_end(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """The median over the untraced runs of each scaled timing (see
    :func:`scaled`) and of peak memory."""
    runs = [scaled(op) for op in ops]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def raw_end_to_end(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """Unscaled medians over the untraced runs, printed for reference."""
    return {
        "setup_s": statistics.median(op["setup_s"] for op in ops),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "calibration_us": statistics.median(
            leg["calibration_s"] * 1e6 for op in ops for leg in op["legs"]
        ),
    }


def leg_layers(leg: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer self times and call counts of one traced leg."""
    with open(leg["spans_file"]) as handle:
        spans = json.load(handle)["spans"]
    spans = with_root(spans, leg["t0"], leg["end"])
    totals = layer_self_times(spans)
    out = {"other.self_s": totals.pop("process")}
    out["import.s"] = totals.pop("import", 0.0)
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = totals.pop(name, 0.0)
    if totals:
        raise RuntimeError(f"spans with no layer: {sorted(totals)}")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = outermost_calls(spans, name)
    out["compile.fallbacks"] = sum(
        1 for s in spans if s["name"] == "neat.compiled.compile" and s["error"]
    )
    out["trace.wall_s"] = leg["end"] - leg["t0"]
    # Self times partition the root interval exactly, up to rounding.
    total = sum(self_times(spans))
    if abs(total - out["trace.wall_s"]) > 1e-6 * max(1.0, total):
        raise RuntimeError(f"self times sum to {total}, wall is {out['trace.wall_s']}")
    for key, value in leg["counts"].items():
        out[key] = value
    return out


def per_layer(
    untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, float]:
    chosen = min(traced, key=lambda op: op["wall_s"])
    layers: Dict[str, float] = {}
    for leg in chosen["legs"]:
        for key, value in leg_layers(leg).items():
            layers[key] = layers.get(key, 0) + value
    sim = chosen["legs"][0].get("sim", {})
    loop_s = end_to_end(untraced)["loop_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {key: layers[key] for key in layers if key.endswith((".self_s", ".calls"))}
    out.update({
        "import.s": layers["import.s"],
        "neat.genome.distance.calls": layers.get("neat.genome.distance.calls", 0),
        "neat.reproduction.children": layers.get("neat.reproduction.children", 0),
        "neat.compiled.compile.fallback_ratio": ratio(
            layers["compile.fallbacks"], layers["neat.compiled.compile.calls"]
        ),
        "envs.rollout.live_lane_ratio": ratio(
            layers.get("rollout.episode_steps", 0), layers.get("rollout.lane_slots", 0)
        ),
        "hw.eve.gene_pairs": sim.get("eve_gene_pairs", 0),
        "hw.eve.waves": sim.get("eve_waves", 0),
        "hw.adam.utilization": ratio(
            sim.get("adam_macs", 0), sim.get("adam_dense_macs", 0)
        ),
        "hw.sram.reads": sim.get("sram_reads", 0),
        "hw.sram.writes": sim.get("sram_writes", 0),
        "hw.sim.cycles": sim.get("cycles", 0),
        "hw.sim.energy_j": sim.get("energy_j", 0.0),
        "hw.sim.cycles_per_s": sim.get("cycles", 0) / loop_s,
        "runs.artifacts.checkpoint_bytes": ratio(
            layers.get("runs.checkpoint_bytes_total", 0), layers.get("runs.checkpoints", 0)
        ),
        "trace.wall_s": layers["trace.wall_s"],
        "trace.overhead_s": chosen["wall_s"] - min(op["wall_s"] for op in untraced),
    })
    return out


# ---------------------------------------------------------------------------
# environment facts


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def commit_hash() -> Optional[str]:
    """HEAD of a git checkout at the root, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def probe(env: Dict[str, str]) -> Optional[str]:
    """Compile the program's bytecode and import it once, untimed, so the
    first run of a fresh checkout starts as warm as the rest; return
    numpy's version, or None when the program cannot be imported."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120,
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.cli, numpy; print(numpy.__version__)"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return proc.stdout.strip()


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        table = json.load(handle)
    wanted = table["per_layer"] if args.trace else table["end_to_end"]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # Traced runs all use the first program seed, so that the traced
        # and untraced runs they are compared with do the same work.
        seeds = program_seeds(args.seed)
        bench = Bench(args.workload, seeds[:1] if args.trace else seeds, work)
        numpy_version = probe(bench.env)
        if numpy_version is None:
            print("error: the program does not import", file=sys.stderr)
            return 1
        untraced, traced, attempted, failed = measure(bench, args.seconds, bool(args.trace))
        if not untraced or (args.trace and not traced):
            print("error: no run completed", file=sys.stderr)
            return 1

        values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
        facts = {
            "workload": args.workload,
            "seed": args.seed,
            "program_seeds": bench.seeds,
            "generations": bench.spec["generations"],
            "population": POP_SIZE,
            "runs": {"untraced": len(untraced), "traced": len(traced)},
            "gen_ms_samples_per_run": sum(len(leg["gen_s"]) for leg in untraced[0]["legs"]),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "commit": commit_hash(),
            "src_sha256": source_digest(),
        }
        print("# env " + json.dumps(facts, sort_keys=True))
        if not args.trace:
            print("# unscaled " + json.dumps(raw_end_to_end(untraced), sort_keys=True))
        metrics = {}
        for entry in wanted:
            value = values[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']:42s} {value:>16.6g} {entry['unit']}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
