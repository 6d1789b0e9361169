"""Diffusion sampling with fuzzy per-pixel image conditioning.

The package couples a plain ancestral diffusion sampler with two things the
trained-network version of this pipeline cannot offer: exact analytic noise
oracles (so sampled distributions can be checked against closed-form truth)
and a per-pixel anomaly map derived from reconstruction discrepancies, which
feeds back into the sampler as a conditioning weight map.

An exported name is imported from its home module when it is first used
(PEP 562). A library import pays only for what it names: ``import
fuzzydiff`` loads no submodule, and ``import fuzzydiff.config`` loads no
sampler, projection or harness code. The ``fuzzydiff`` command imports
``fuzzydiff.cli``, which loads every module.
"""

import importlib

# Each home module and the names it exports, in the order of __all__.
_EXPORTS = {
    "config": ("ConfigError", "load_config", "build_schedule", "build_model"),
    "core": ("Grid", "RngStream", "RowStreams", "ValidationError"),
    "gridio": ("read_grid", "write_grid", "write_preview"),
    "schedule": ("NoiseSchedule", "linear_schedule"),
    "denoiser": ("EpsilonModel", "GaussianFieldModel", "GmmPixelModel"),
    "sampler": ("fuzzy_sample",),
    "projection": (
        "ValidationStats",
        "project_reconstruct_array",
        "validation_stats",
        "attention_map",
        "attention_from_discrepancies",
        "weight_from_attention",
    ),
    "harness": (
        "DegradeParams",
        "DegradationRecord",
        "degrade",
        "pixel_auc",
        "masked_mse",
        "run_correction_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import ``name`` from its home module and bind it here, once."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
