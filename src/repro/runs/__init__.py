"""Run artifacts, checkpoint/resume and artifact-only reporting.

The paper's premise is *continuous learning*: an agent's evolved state
must survive power cycles and keep improving across sessions (Section
I — "the system continues to learn in the field").  This package is
that premise as a subsystem — every experiment can leave a durable,
resumable record:

* :class:`RunDir` — the on-disk layout of one run (``spec.json``,
  append-only ``metrics.jsonl``, ``checkpoints/gen-*.json`` full-state
  snapshots, ``champion.json``, ``result.json``).
* :func:`run_in_dir` / :class:`RunWriter` — execute an experiment while
  streaming its artifacts; checkpoint cadence via ``checkpoint_every``.
* :func:`resume_run` — continue an interrupted run from its last
  checkpoint, **bit-identically** to a run that was never interrupted
  (golden-tested across the serial, pooled and vectorized evaluation
  paths), or extend a finished run's generation budget.
* :mod:`repro.runs.report` — rebuild fitness-curve and hardware-metric
  tables from artifacts alone, with CSV/JSON export; no re-simulation.

Quickstart::

    from repro.api import ExperimentSpec
    from repro.runs import resume_run, run_in_dir

    spec = ExperimentSpec("CartPole-v0", max_generations=30, pop_size=50)
    run_in_dir(spec, "runs/cartpole", checkpoint_every=5)
    # ... power cycle anywhere ...
    result = resume_run("runs/cartpole")        # continues, bit-identical

CLI: ``repro run CartPole-v0 --run-dir runs/cartpole``,
``repro run --resume runs/cartpole``, ``repro report runs/cartpole``.
The DSE engine writes one run directory per sweep point with
``repro dse --runs-dir DIR``.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "artifacts": (
        "CHAMPION_FILENAME",
        "CHECKPOINT_DIRNAME",
        "METRICS_FILENAME",
        "RESULT_FILENAME",
        "SPEC_FILENAME",
        "RunDir",
        "RunError",
    ),
    "locking": (
        "LOCK_FILENAME",
        "ClaimConflictError",
        "ClaimFile",
        "RunDirLock",
        "RunLockedError",
        "read_claim",
        "read_lock",
    ),
    "report": (
        "RunReport",
        "export_reports",
        "fitness_table",
        "hardware_table",
        "load_run",
        "scenario_table",
        "summary_table",
    ),
    "runner": (
        "DEFAULT_CHECKPOINT_EVERY",
        "RunWriter",
        "resume_run",
        "run_in_dir",
    ),
})
