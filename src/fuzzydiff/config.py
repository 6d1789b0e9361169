"""Strict JSON experiment configuration.

One schema is shared by every subcommand; a config file may carry any subset
of the per-command sections. Unknown fields anywhere are hard errors. The
point is to make a typo in a tolerance or a model parameter fail loudly
instead of silently running a different experiment.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import ValidationError
from .denoiser import EpsilonModel, GaussianFieldModel, GmmPixelModel
from .gridio import read_grid
from .schedule import NoiseSchedule, linear_schedule

__all__ = ["ConfigError", "load_config", "build_schedule", "build_model"]

SCHEMA_VERSION = 1

# Size caps, checked at load: the longest schedule, the most float64 values
# one (n, D) row array may hold (2**24 values are 128 MiB), and the largest
# gaussian_field, whose D x D covariance and eigenbasis grow as D**2 (a
# 2**12-pixel field needs 128 MiB per D x D array).
MAX_T = 10**6
MAX_ROW_VALUES = 2**24
MAX_FIELD_DIM = 2**12

_MISSING = object()


class ConfigError(Exception):
    """Configuration file problem; the message names the offending path."""


def _type_name(value) -> str:
    return type(value).__name__


def _is_number(v) -> bool:
    """A finite int or float; Python's json also parses NaN, Infinity and 1e400."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int literal too large for a float
        return False


def _is_int(v) -> bool:
    """An int that numpy can hold as int64; larger ones would fail late, in numpy."""
    return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63


_CHECKS = {
    "int": (_is_int, "an integer in the signed 64-bit range"),
    "number": (_is_number, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "number_array": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_number(x) for x in v),
        "a non-empty array of finite numbers",
    ),
    "int_array_or_null": (
        lambda v: v is None or (isinstance(v, list) and all(_is_int(x) for x in v)),
        "an array of signed 64-bit integers or null",
    ),
    "int_or_null": (
        lambda v: v is None or _is_int(v),
        "an integer in the signed 64-bit range or null",
    ),
    "string_or_null": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "number_or_string": (
        lambda v: _is_number(v) or isinstance(v, str),
        "a finite number or a string",
    ),
}


def _check_fields(section: dict, fields: dict, path: str) -> dict:
    """Validate types, apply defaults, reject unknown keys. Returns a copy."""
    unknown = set(section) - set(fields)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown field '{path}.{name}'")
    out = {}
    for key, (kind, default) in fields.items():
        if key in section:
            value = section[key]
            ok, want = _CHECKS[kind]
            if not ok(value):
                raise ConfigError(
                    f"'{path}.{key}' must be {want}, got {_type_name(value)}"
                )
            out[key] = value
        elif default is _MISSING:
            raise ConfigError(f"missing required field '{path}.{key}'")
        else:
            out[key] = default
    return out


_SCHEDULE_FIELDS = {
    "T": ("int", _MISSING),
    "beta_start": ("number", 1e-4),
    "beta_end": ("number", 0.02),
}

_MODEL_COMMON = {
    "type": ("string", _MISSING),
    "height": ("int", _MISSING),
    "width": ("int", _MISSING),
    "channels": ("int", 1),
}

_MODEL_FIELD_FIELDS = dict(
    _MODEL_COMMON,
    mean=("number", 0.5),
    marginal_variance=("number", 0.04),
    correlation_length=("number", 2.0),
    covariance_file=("string_or_null", None),
)

_MODEL_GMM_FIELDS = dict(
    _MODEL_COMMON,
    weights=("number_array", _MISSING),
    means=("number_array", _MISSING),
    variances=("number_array", _MISSING),
)

_SAMPLE_FIELDS = {"count": ("int", 1)}

_FUZZY_FIELDS = {
    "image": ("string", _MISSING),
    "map": ("number_or_string", _MISSING),
    "count": ("int", 1),
    "J": ("int", 5),
    "clamp_map": ("bool", False),
}

_STATS_FIELDS = {
    "v_count": ("int", 1000),
    "depths": ("int_array_or_null", None),
    "reps": ("int", 1),
}

_ATTEND_FIELDS = {
    "image": ("string", _MISSING),
    "stats_dir": ("string", _MISSING),
    "reps": ("int", 1),
}

_DEGRADE_FIELDS = {
    "image": ("string_or_null", None),
    "side_min": ("int_or_null", None),
    "side_max": ("int_or_null", None),
    "sigma_low": ("number", 4.0),
    "sigma_high": ("number", 8.0),
}

_EVAL_FIELDS = {
    "trials": ("int", 20),
    "J": ("int", 2),
    "depths": ("int_array_or_null", None),
    "reps": ("int", 1),
    "v_count": ("int", 200),
    "baseline_depth": ("int_or_null", None),
    "degrade_enabled": ("bool", True),
    "sigma_low": ("number", 4.0),
    "sigma_high": ("number", 8.0),
    "side_min": ("int_or_null", None),
    "side_max": ("int_or_null", None),
    "record_artifacts": ("bool", False),
}

_SECTION_FIELDS = {
    "sample": _SAMPLE_FIELDS,
    "fuzzy": _FUZZY_FIELDS,
    "stats": _STATS_FIELDS,
    "attend": _ATTEND_FIELDS,
    "degrade": _DEGRADE_FIELDS,
    "eval": _EVAL_FIELDS,
}

# Range policy, checked at load time: fields that must be >= 1, row counts
# whose (n, D) arrays must fit MAX_ROW_VALUES, a scalar fuzzy.map in [0, 1],
# projection depths that must lie in [0, schedule.T], depth sets that must be
# non-empty and distinct, and degradation ranges that must be ordered and fit
# the image.
_POSITIVE = (
    ("model", "height"),
    ("model", "width"),
    ("model", "channels"),
    ("sample", "count"),
    ("fuzzy", "count"),
    ("fuzzy", "J"),
    ("stats", "v_count"),
    ("stats", "reps"),
    ("attend", "reps"),
    ("eval", "trials"),
    ("eval", "J"),
    ("eval", "reps"),
    ("eval", "v_count"),
)
_ROW_COUNTS = (
    ("sample", "count"),
    ("fuzzy", "count"),
    ("stats", "v_count"),
    ("eval", "v_count"),
    ("eval", "trials"),
)
_DEPTHS = (("stats", "depths"), ("eval", "depths"), ("eval", "baseline_depth"))
_DEPTH_SETS = ("stats", "eval")
_DEGRADE_RANGES = ("degrade", "eval")


def _check_ranges(cfg: dict) -> None:
    for name, key in _POSITIVE:
        if name in cfg and cfg[name][key] < 1:
            raise ConfigError(f"'{name}.{key}' must be >= 1")
    T = cfg["schedule"]["T"]
    if T > MAX_T:
        raise ConfigError(f"'schedule.T' must be <= {MAX_T}, got {T}")
    model = cfg["model"]
    D = model["height"] * model["width"] * model["channels"]
    if model["type"] == "gaussian_field" and D > MAX_FIELD_DIM:
        raise ConfigError(
            f"'model' height*width*channels must be <= {MAX_FIELD_DIM} for gaussian_field, "
            f"got {D}"
        )
    for name, key in _ROW_COUNTS:
        if name in cfg and cfg[name][key] * D > MAX_ROW_VALUES:
            raise ConfigError(
                f"'{name}.{key}' times height*width*channels must be <= {MAX_ROW_VALUES}, "
                f"got {cfg[name][key]} * {D}"
            )
    m_spec = cfg.get("fuzzy", {}).get("map")
    if isinstance(m_spec, (int, float)) and not 0.0 <= m_spec <= 1.0:
        raise ConfigError(f"'fuzzy.map' scalar must lie in [0, 1], got {m_spec}")
    for name, key in _DEPTHS:
        value = cfg.get(name, {}).get(key)
        for t in value if isinstance(value, list) else [value]:
            if t is not None and not 0 <= t <= T:
                raise ConfigError(f"'{name}.{key}' must lie in [0, {T}], got {t}")
    for name in _DEPTH_SETS:
        depths = cfg.get(name, {}).get("depths")
        if depths is not None and (not depths or len(set(depths)) != len(depths)):
            raise ConfigError(f"'{name}.depths' must be non-empty and distinct, got {depths}")
    side_cap = min(cfg["model"]["height"], cfg["model"]["width"])
    for name in _DEGRADE_RANGES:
        if name not in cfg:
            continue
        sec = cfg[name]
        if sec["sigma_low"] > sec["sigma_high"]:
            raise ConfigError(f"'{name}.sigma_low' must be <= '{name}.sigma_high'")
        for key in ("side_min", "side_max"):
            if sec[key] is not None and not 0 <= sec[key] <= side_cap:
                raise ConfigError(f"'{name}.{key}' must lie in [0, {side_cap}], got {sec[key]}")
        if None not in (sec["side_min"], sec["side_max"]) and sec["side_min"] > sec["side_max"]:
            raise ConfigError(f"'{name}.side_min' must be <= '{name}.side_max'")


def load_config(path) -> dict:
    """Parse and validate a config file; returns the normalized dict.

    The result always carries 'schedule' and 'model' plus whichever command
    sections the file defined (with defaults filled in).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    allowed = {"schema_version", "schedule", "model", *_SECTION_FIELDS}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}'")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")

    for required in ("schedule", "model"):
        if required not in raw:
            raise ConfigError(f"missing required section '{required}'")
        if not isinstance(raw[required], dict):
            raise ConfigError(f"'{required}' must be an object")

    out: dict = {"schema_version": SCHEMA_VERSION}
    out["schedule"] = _check_fields(raw["schedule"], _SCHEDULE_FIELDS, "schedule")

    model_raw = raw["model"]
    mtype = model_raw.get("type")
    if mtype == "gaussian_field":
        out["model"] = _check_fields(model_raw, _MODEL_FIELD_FIELDS, "model")
    elif mtype == "gmm_pixel":
        out["model"] = _check_fields(model_raw, _MODEL_GMM_FIELDS, "model")
    elif mtype is None:
        raise ConfigError("missing required field 'model.type'")
    else:
        raise ConfigError(
            f"'model.type' must be 'gaussian_field' or 'gmm_pixel', got {mtype!r}"
        )

    for name, fields in _SECTION_FIELDS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigError(f"'{name}' must be an object")
            out[name] = _check_fields(raw[name], fields, name)
    _check_ranges(out)
    return out


def section(cfg: dict, name: str) -> dict:
    """The command section ``name`` of a loaded config.

    A config without that section gets its defaults, unless a field of the
    section has none; then the section is required and this raises.
    """
    if name in cfg:
        return cfg[name]
    fields = _SECTION_FIELDS[name]
    if any(default is _MISSING for _, default in fields.values()):
        raise ConfigError(f"config has no '{name}' section, required by this command")
    return {key: default for key, (_, default) in fields.items()}


def build_schedule(cfg: dict) -> NoiseSchedule:
    sched = cfg["schedule"]
    try:
        return linear_schedule(sched["T"], sched["beta_start"], sched["beta_end"])
    except ValidationError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def build_model(cfg: dict, base_dir=None) -> EpsilonModel:
    """Construct the oracle named by the config's model section.

    covariance_file paths resolve relative to base_dir (normally the config
    file's directory); the file must hold a DxD single-channel grid.
    """
    spec = cfg["model"]
    shape = (spec["height"], spec["width"], spec["channels"])
    try:
        if spec["type"] == "gaussian_field":
            if spec["covariance_file"] is not None:
                cov_path = Path(spec["covariance_file"])
                if base_dir is not None and not cov_path.is_absolute():
                    cov_path = Path(base_dir) / cov_path
                cov_grid = read_grid(cov_path)
                D = shape[0] * shape[1] * shape[2]
                if cov_grid.shape != (D, D, 1):
                    raise ConfigError(
                        f"covariance grid must be {D}x{D}x1, got "
                        f"{cov_grid.shape[0]}x{cov_grid.shape[1]}x{cov_grid.shape[2]}"
                    )
                cov = cov_grid.values[:, :, 0]
                return GaussianFieldModel(shape, float(spec["mean"]), cov)
            return GaussianFieldModel.exponential(
                height=shape[0],
                width=shape[1],
                channels=shape[2],
                mean=float(spec["mean"]),
                marginal_variance=float(spec["marginal_variance"]),
                correlation_length=float(spec["correlation_length"]),
            )
        return GmmPixelModel(
            shape,
            np.asarray(spec["weights"], dtype=np.float64),
            np.asarray(spec["means"], dtype=np.float64),
            np.asarray(spec["variances"], dtype=np.float64),
        )
    except ValidationError as exc:
        raise ConfigError(f"model: {exc}") from exc
