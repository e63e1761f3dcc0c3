"""Platform models behind one declarative API (Table III + the SoC).

Two pieces compose here:

* :class:`PlatformSpec` (:mod:`repro.platforms.spec`) — a frozen,
  JSON-round-trippable description of one platform: a ``kind`` (``cpu``,
  ``gpu``, ``genesys`` analytical models; ``soc`` the cycle-level
  EvE/ADAM design point) plus a typed parameter block, content-hashable
  for the DSE cache.
* the open registry (:mod:`repro.platforms.registry`) — every Table III
  legend name and the ``soc`` design point as entries;
  :func:`register_platform` adds custom platforms (specs or factories)
  that immediately become ``analytical:<name>`` backends and CLI rows
  without touching backend or sweep code.

``make_platform`` accepts a registered name, a :class:`PlatformSpec`,
or a raw spec dict; unknown names raise :class:`UnknownPlatformError`
(a ``KeyError`` subclass) listing what is registered.  The legacy
factory helpers (``cpu_a`` … ``gpu_d``, ``genesys``) remain for direct
model construction.
"""

from .._lazy import lazy_exports

# Submodules load on first use: the spec (all an ExperimentSpec needs)
# does not pull in the cost models or the chip model behind them.
__all__ = lazy_exports(__name__, {
    "base": ("PhaseCost", "Platform"),
    "cpu": (
        "A57_PARAMS",
        "CPUParams",
        "CPUPlatform",
        "I7_PARAMS",
        "PLP_INFERENCE_SPEEDUP",
        "cpu_a",
        "cpu_b",
        "cpu_c",
        "cpu_d",
    ),
    "genesys": ("ONCHIP_TRANSFER_FRACTION", "GenesysPlatform", "genesys"),
    "gpu": (
        "GPUParams",
        "GPUPlatform",
        "GTX1080_PARAMS",
        "TEGRA_PARAMS",
        "gpu_a",
        "gpu_b",
        "gpu_c",
        "gpu_d",
    ),
    "memory_model": ("footprint_comparison", "footprint_ratios"),
    "registry": (
        "all_platforms",
        "build_platform",
        "make_platform",
        "platform_names",
        "platform_spec",
        "register_platform",
        "registered_platforms",
        "table3",
        "unregister_platform",
    ),
    "soc_platform": ("SoCPlatform",),
    "spec": (
        "PLATFORM_KINDS",
        "CPUPlatformParams",
        "GenesysPlatformParams",
        "GPUPlatformParams",
        "PlatformSpec",
        "PlatformSpecError",
        "SoCPlatformParams",
        "UnknownPlatformError",
        "as_platform_spec",
        "parse_adam_shape",
    ),
})
