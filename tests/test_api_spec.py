"""Unit tests for repro.api.spec: the JSON-round-trippable experiment spec."""

import json

import pytest

from repro.api import ExperimentSpec, SpecError


class TestConstruction:
    def test_defaults(self):
        spec = ExperimentSpec("CartPole-v0")
        assert spec.backend == "software"
        assert spec.workers == 1
        assert spec.max_generations == 50
        assert spec.fitness_threshold is None

    def test_frozen(self):
        spec = ExperimentSpec("CartPole-v0")
        with pytest.raises(Exception):
            spec.env_id = "MountainCar-v0"

    def test_replace(self):
        spec = ExperimentSpec("CartPole-v0")
        derived = spec.replace(backend="soc", workers=4)
        assert derived.backend == "soc"
        assert derived.workers == 4
        assert spec.backend == "software"  # original untouched

    @pytest.mark.parametrize("kwargs", [
        {"env_id": ""},
        {"env_id": "CartPole-v0", "backend": ""},
        {"env_id": "CartPole-v0", "max_generations": 0},
        {"env_id": "CartPole-v0", "pop_size": 1},
        {"env_id": "CartPole-v0", "episodes": 0},
        {"env_id": "CartPole-v0", "max_steps": 0},
        {"env_id": "CartPole-v0", "workers": 0},
        {"env_id": "CartPole-v0", "vectorizer": "cuda"},
        {"env_id": "CartPole-v0", "vectorizer": ""},
        {"env_id": "CartPole-v0", "max_steps": float("nan")},
        {"env_id": "CartPole-v0", "max_steps": float("inf")},
        {"env_id": "CartPole-v0", "max_steps": 2.5},
        {"env_id": "CartPole-v0", "max_steps": 200.0},
        {"env_id": "CartPole-v0", "max_steps": True},
        {"env_id": "CartPole-v0", "fitness_threshold": float("nan")},
        {"env_id": "CartPole-v0", "fitness_threshold": float("inf")},
        {"env_id": "CartPole-v0", "fitness_threshold": float("-inf")},
        {"env_id": "CartPole-v0", "fitness_threshold": "200"},
        {"env_id": "CartPole-v0", "fitness_threshold": True},
        {"env_id": "CartPole-v0", "seed": float("nan")},
        {"env_id": "CartPole-v0", "seed": True},
        {"env_id": "CartPole-v0", "seed": 1.0},
        {"env_id": "CartPole-v0", "seed": None},
        {"env_id": "CartPole-v0", "pop_size": 10.5},
        {"env_id": "CartPole-v0", "pop_size": float("inf")},
        {"env_id": "CartPole-v0", "pop_size": True},
        {"env_id": "CartPole-v0", "max_generations": 2.5},
        {"env_id": "CartPole-v0", "max_generations": float("nan")},
        {"env_id": "CartPole-v0", "max_generations": True},
        {"env_id": "CartPole-v0", "episodes": 1.5},
        {"env_id": "CartPole-v0", "episodes": float("inf")},
        {"env_id": "CartPole-v0", "episodes": True},
        {"env_id": "CartPole-v0", "workers": 1.5},
        {"env_id": "CartPole-v0", "workers": float("inf")},
        {"env_id": "CartPole-v0", "workers": True},
        {"env_id": "CartPole-v0", "workers": "2"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            ExperimentSpec(**kwargs)

    def test_integer_fields_accept_ints(self):
        spec = ExperimentSpec(
            "CartPole-v0", max_generations=1, pop_size=2, episodes=1,
            workers=1, seed=-3,
        )
        assert (spec.max_generations, spec.pop_size, spec.seed) == (1, 2, -3)

    def test_int_max_steps_and_finite_threshold_accepted(self):
        spec = ExperimentSpec("CartPole-v0", max_steps=1, fitness_threshold=-1e9)
        assert spec.max_steps == 1
        assert spec.fitness_threshold == -1e9

    def test_non_finite_threshold_rejected_from_json(self):
        # json.loads maps the NaN/Infinity literals to floats.
        for literal in ("NaN", "Infinity"):
            text = f'{{"env_id": "CartPole-v0", "fitness_threshold": {literal}}}'
            with pytest.raises(SpecError, match="fitness_threshold"):
                ExperimentSpec.from_json(text)

    def test_string_threshold_rejected_from_json(self):
        text = '{"env_id": "CartPole-v0", "fitness_threshold": "200"}'
        with pytest.raises(SpecError, match="fitness_threshold"):
            ExperimentSpec.from_json(text)

    def test_vectorizer_default_scalar(self):
        assert ExperimentSpec("CartPole-v0").vectorizer == "scalar"
        assert ExperimentSpec("CartPole-v0", vectorizer="numpy").vectorizer == "numpy"


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            "LunarLander-v2", backend="analytical:GENESYS",
            max_generations=7, pop_size=24, episodes=2, max_steps=123,
            seed=9, fitness_threshold=200.0, workers=3, vectorizer="numpy",
            backend_options={"platform": "GENESYS"},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ExperimentSpec("CartPole-v0", backend="soc", seed=42)
        text = spec.to_json()
        json.loads(text)  # valid JSON
        assert ExperimentSpec.from_json(text) == spec

    def test_file_round_trip(self, tmp_path):
        spec = ExperimentSpec("MountainCar-v0", workers=2, max_steps=50)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"env_id": "CartPole-v0", "popsize": 3})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid spec JSON"):
            ExperimentSpec.from_json("{not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(SpecError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")

    def test_backend_options_copied(self):
        options = {"platform": "CPU_a"}
        spec = ExperimentSpec("CartPole-v0", backend_options=options)
        data = spec.to_dict()
        data["backend_options"]["platform"] = "GPU_a"
        assert spec.backend_options["platform"] == "CPU_a"
