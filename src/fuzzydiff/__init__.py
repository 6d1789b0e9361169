"""Diffusion sampling with fuzzy per-pixel image conditioning.

The package couples a plain ancestral diffusion sampler with two things the
trained-network version of this pipeline cannot offer: exact analytic noise
oracles (so sampled distributions can be checked against closed-form truth)
and a per-pixel anomaly map derived from reconstruction discrepancies, which
feeds back into the sampler as a conditioning weight map.
"""

from .config import ConfigError, build_model, build_schedule, load_config
from .core import Grid, RngStream, RowStreams, ValidationError
from .denoiser import (
    EpsilonModel,
    GaussianFieldModel,
    GmmPixelModel,
)
from .gridio import read_grid, write_grid, write_preview
from .harness import (
    DegradationRecord,
    DegradeParams,
    degrade,
    masked_mse,
    pixel_auc,
    run_correction_experiment,
)
from .projection import (
    ValidationStats,
    attention_from_discrepancies,
    attention_map,
    project_reconstruct_array,
    validation_stats,
    weight_from_attention,
)
from .sampler import fuzzy_sample
from .schedule import NoiseSchedule, linear_schedule

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "load_config",
    "build_schedule",
    "build_model",
    "Grid",
    "RngStream",
    "RowStreams",
    "ValidationError",
    "read_grid",
    "write_grid",
    "write_preview",
    "NoiseSchedule",
    "linear_schedule",
    "EpsilonModel",
    "GaussianFieldModel",
    "GmmPixelModel",
    "fuzzy_sample",
    "ValidationStats",
    "project_reconstruct_array",
    "validation_stats",
    "attention_map",
    "attention_from_discrepancies",
    "weight_from_attention",
    "DegradeParams",
    "DegradationRecord",
    "degrade",
    "pixel_auc",
    "masked_mse",
    "run_correction_experiment",
]
