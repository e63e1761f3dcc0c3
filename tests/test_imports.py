"""Import layering: what the software run path loads, and the lazy
package surfaces that keep it small.

A durable run restarts in a fresh process on every resume or
preemption, so every module imported before its first generation is
paid again at each restart.  The software backend must therefore load
only what it executes: not the chip model, the platform cost models,
the DSE engine, the serve stack or the HTTP/multiprocessing machinery.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a serial software run never executes.
NOT_ON_SOFTWARE_PATH = (
    "http.server",
    "multiprocessing",
    "concurrent.futures",
    "repro.serve",
    "repro.dse",
    "repro.analysis",
    "repro.baselines",
    "repro.core.soc",
    "repro.hw.eve",
    "repro.platforms.base",
)

#: The packages below ``repro`` whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro.analysis",
    "repro.api",
    "repro.hw",
    "repro.obs",
    "repro.platforms",
    "repro.runs",
)

SOFTWARE_RUN = """
import json, sys

import repro.cli
import repro.api
import repro.runs
from repro.api import ExperimentSpec
from repro.neat.population import Population
from repro.runs import run_in_dir

seen = []
original = Population.run_generation

def run_generation(self, *args, **kwargs):
    if not seen:
        seen.append(set(sys.modules))
    return original(self, *args, **kwargs)

Population.run_generation = run_generation
spec = ExperimentSpec(
    "CartPole-v0", max_generations=2, pop_size=20, max_steps=50,
    vectorizer="numpy", seed=0,
)
result = run_in_dir(spec, sys.argv[1], checkpoint_every=1)
print(json.dumps({
    "generations": result.generations,
    "loaded": sorted(sys.modules),
    "late": sorted(set(sys.modules) - seen[0]),
}))
"""


def run_python(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_TRACE_FILE", None)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_software_run_loads_only_what_it_executes(tmp_path):
    out = json.loads(run_python("-c", SOFTWARE_RUN, str(tmp_path / "run")))
    assert out["generations"] == 2
    loaded = set(out["loaded"])
    assert [m for m in NOT_ON_SOFTWARE_PATH if m in loaded] == []
    # Everything the generations use is imported before the first starts.
    assert out["late"] == []


def test_top_level_exports_are_the_subpackages():
    for name in repro.__all__:
        if name != "__version__":
            assert getattr(repro, name) is importlib.import_module(f"repro.{name}")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_submodule_binding(package):
    module = importlib.import_module(package)
    submodules = [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    ]
    for name in module.__all__:
        value = getattr(module, name)
        assert any(vars(sub).get(name, sub) is value for sub in submodules), (
            f"{package}.{name} is bound by none of its submodules"
        )


def test_lazy_surfaces_in_a_fresh_process():
    run_python("-c", """
import repro
assert repro.hw.adam.ADAM is repro.hw.ADAM

namespace = {}
exec("from repro.obs import *", namespace)
assert set(repro.obs.__all__) <= set(namespace)

# Loading the genesys submodule must not shadow the genesys factory.
import repro.platforms.registry
from repro.platforms import genesys
assert callable(genesys) and repro.platforms.genesys is genesys
""")
