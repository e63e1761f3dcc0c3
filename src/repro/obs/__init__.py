"""Structured telemetry: spans, counters, metrics, traces (``repro.obs``).

The observability layer for every execution path — see
``docs/observability.md``:

* :func:`span` / :func:`incr` — the zero-dependency tracer call sites
  sprinkled through the runner, the parallel evaluator, the compiled
  batch engine, the SoC model and the DSE sweep engine.  No-ops (one
  global read) until a :class:`Tracer` is installed, so the disabled
  overhead is gated at <=2% (``benchmarks/bench_obs_overhead.py``).
* ``telemetry.jsonl`` — the per-run artifact :func:`repro.runs.run_in_dir`
  writes when tracing is on (``--trace`` / ``REPRO_TRACE``); strictly
  out-of-band, so traced runs stay byte-identical to untraced ones.
* :func:`chrome_trace` / :func:`export_chrome_trace` — open any traced
  run in Perfetto; :func:`phase_summary` is the Fig. 10-style runtime
  breakdown ``repro trace RUN_DIR`` prints.
* :class:`MetricsRegistry` + :func:`prometheus_text` — the scrapeable
  ``GET /metrics`` surface of the serve HTTP API and the data behind
  ``repro top``.
* :class:`JsonlTail` — incremental JSONL following (byte-offset cursor,
  torn-tail and truncation aware) for every poll loop.
"""

from . import tracer  # noqa: F401  (every layer calls span/incr: load it now)
from .._lazy import lazy_exports

# chrome, fleet, jsonl and metrics (which pulls in http.server) load on
# first use.
__all__ = lazy_exports(__name__, {
    "chrome": ("chrome_trace", "export_chrome_trace", "phase_summary"),
    "fleet": ("prometheus_text", "render_top", "snapshot_fleet"),
    "jsonl": ("JsonlTail",),
    "metrics": (
        "DEFAULT_BUCKETS",
        "PROMETHEUS_CONTENT_TYPE",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsServer",
    ),
    "tracer": (
        "TELEMETRY_FILENAME",
        "TRACE_ENV_VAR",
        "TRACE_FILE_ENV_VAR",
        "Span",
        "Tracer",
        "current",
        "env_trace_enabled",
        "incr",
        "install",
        "read_telemetry",
        "span",
        "tracing",
        "uninstall",
    ),
})
