"""Golden resume determinism: interrupted + resumed ≡ uninterrupted.

The checkpoint/resume contract (docs/runs.md): a CartPole run killed at
generation *k* and resumed via ``repro run --resume`` produces a
``metrics.jsonl``, a ``champion.json``, a checkpoint set and a fitness
trajectory **byte-identical** to the run that was never interrupted —
for the serial, ``workers=2`` pooled and ``vectorizer="numpy"``
vectorized evaluation paths.

These tests compare raw file bytes, not parsed values: any drift in
float formatting, row ordering or key sets is a contract break too.
"""

from pathlib import Path

import pytest

from repro.api import ExperimentSpec
from repro.neat.aggregations import sum_aggregation
from repro.runs import RunDir, resume_run, run_in_dir

PATHS = {
    "serial": {},
    "vectorized": {"vectorizer": "numpy"},
    "workers2": {"workers": 2},
}

#: Artifacts whose bytes must match between the two runs.
COMPARED_FILES = ("metrics.jsonl", "champion.json", "spec.json")


def cartpole_spec(**overrides):
    base = dict(
        env_id="CartPole-v0", max_generations=6, pop_size=14,
        max_steps=40, seed=3, episodes=2,
        # Unreachable threshold: both runs must go the full budget, so
        # the comparison covers every generation.
        fitness_threshold=1e9,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class Interrupt(RuntimeError):
    pass


def kill_at(generation):
    def observer(metrics):
        if metrics.generation == generation:
            raise Interrupt
    return observer


def assert_dirs_identical(resumed: Path, reference: Path):
    for name in COMPARED_FILES:
        assert (resumed / name).read_bytes() == (reference / name).read_bytes(), (
            f"{name} diverged between resumed and uninterrupted runs"
        )
    resumed_ckpts = sorted(p.name for p in (resumed / "checkpoints").iterdir())
    reference_ckpts = sorted(
        p.name for p in (reference / "checkpoints").iterdir()
    )
    assert resumed_ckpts == reference_ckpts, "checkpoint sets diverged"
    for name in resumed_ckpts:
        assert (
            (resumed / "checkpoints" / name).read_bytes()
            == (reference / "checkpoints" / name).read_bytes()
        ), f"checkpoint {name} diverged"


def run_interrupted_and_reference(tmp_path, spec, kill_generation):
    reference = tmp_path / "reference"
    run_in_dir(spec, reference, checkpoint_every=2)
    resumed = tmp_path / "resumed"
    with pytest.raises(Interrupt):
        run_in_dir(spec, resumed, checkpoint_every=2,
                   on_generation=kill_at(kill_generation))
    result = resume_run(resumed)
    return resumed, reference, result


@pytest.mark.parametrize("path_name", ["serial", "vectorized"])
def test_resume_bit_identical(tmp_path, path_name):
    spec = cartpole_spec(**PATHS[path_name])
    resumed, reference, result = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=3
    )
    assert_dirs_identical(resumed, reference)
    assert result.generations == spec.max_generations
    assert [m.generation for m in result.metrics] == list(
        range(spec.max_generations)
    )


@pytest.mark.slow
def test_resume_bit_identical_pooled(tmp_path):
    """workers=2: the pool is rebuilt on resume, seeds must not care."""
    spec = cartpole_spec(**PATHS["workers2"])
    resumed, reference, _ = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=3
    )
    assert_dirs_identical(resumed, reference)


@pytest.mark.slow
def test_resume_bit_identical_pooled_vectorized(tmp_path):
    spec = cartpole_spec(workers=2, vectorizer="numpy")
    resumed, reference, _ = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=2
    )
    assert_dirs_identical(resumed, reference)


@pytest.mark.parametrize("kill_generation", [1, 4])
def test_resume_bit_identical_any_kill_point(tmp_path, kill_generation):
    """Kill before the first checkpoint and between later ones; both
    resume paths (full restart vs checkpoint restore) must converge on
    the same bytes."""
    spec = cartpole_spec()
    resumed, reference, _ = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=kill_generation
    )
    assert_dirs_identical(resumed, reference)


def test_double_interruption(tmp_path):
    """Two kills at different generations, two resumes — still identical."""
    spec = cartpole_spec()
    reference = tmp_path / "reference"
    run_in_dir(spec, reference, checkpoint_every=2)
    resumed = tmp_path / "resumed"
    with pytest.raises(Interrupt):
        run_in_dir(spec, resumed, checkpoint_every=2,
                   on_generation=kill_at(2))
    with pytest.raises(Interrupt):
        resume_run(resumed, on_generation=kill_at(4))
    resume_run(resumed)
    assert_dirs_identical(resumed, reference)


def test_analytical_resume_bit_identical(tmp_path):
    """The analytical backend's modelled energy/runtime metrics resume
    exactly too (they depend on the reproduction plan the checkpoint
    carries)."""
    spec = cartpole_spec(backend="analytical:GENESYS", max_generations=5)
    resumed, reference, result = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=2
    )
    assert_dirs_identical(resumed, reference)
    reference_summary = RunDir(reference).load_result()
    assert result.total_energy_j == pytest.approx(
        reference_summary["total_energy_j"], abs=0, rel=0
    )


def test_analytical_resume_totals_cover_full_run(tmp_path):
    """A resumed analytical run must report *full-run* totals.

    ``AnalyticalBackend.run`` sums only the in-memory ``loop.metrics`` —
    after a resume those start at the checkpoint, so the runs layer
    splices the pre-interruption rows back in from ``metrics.jsonl`` and
    re-derives the totals.  Pin that contract: the resumed result (both
    the returned object and the persisted ``result.json``) totals every
    generation, equal to the uninterrupted run and to the metrics file
    sum, exactly.
    """
    spec = cartpole_spec(backend="analytical:GENESYS")
    resumed, reference, result = run_interrupted_and_reference(
        tmp_path, spec, kill_generation=3
    )
    rows = RunDir(resumed).read_metrics()
    assert [row["generation"] for row in rows] == list(
        range(spec.max_generations)
    )
    assert result.total_energy_j == sum_aggregation(
        row["energy_j"] for row in rows
    )
    assert result.total_runtime_s == sum_aggregation(
        row["runtime_s"] for row in rows
    )
    persisted = RunDir(resumed).load_result()
    reference_summary = RunDir(reference).load_result()
    assert persisted["total_energy_j"] == reference_summary["total_energy_j"]
    assert persisted["total_runtime_s"] == reference_summary["total_runtime_s"]
