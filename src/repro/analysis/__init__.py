"""Characterisation and reporting utilities (Figs. 4-5, 10-11)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "characterization": (
        "EnvCharacterisation",
        "RunCharacterisation",
        "characterise_env",
        "record_workload",
    ),
    "footprint": (
        "FootprintReport",
        "footprint_report",
        "genes_to_bytes",
    ),
    "netviz": (
        "connection_matrix",
        "describe_genome",
        "sparsity",
    ),
    "reporting": (
        "fmt_bytes",
        "fmt_joules",
        "fmt_seconds",
        "fmt_si",
        "orders_of_magnitude",
        "render_distribution_table",
        "render_series",
        "render_table",
        "summarize_distribution",
        "write_csv",
        "write_json",
    ),
    "reuse": (
        "ReuseStats",
        "reuse_series",
        "reuse_stats",
    ),
    "species_tracker": (
        "SpeciesHistory",
        "SpeciesSnapshot",
        "track_run",
    ),
})
