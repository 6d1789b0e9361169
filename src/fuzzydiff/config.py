"""Strict JSON experiment configuration.

One schema is shared by every subcommand; a config file may carry any subset
of the per-command sections. Unknown fields anywhere are hard errors. The
point is to make a typo in a tolerance or a model parameter fail loudly
instead of silently running a different experiment.
"""

from __future__ import annotations

import math
import stat
from pathlib import Path

import numpy as np

from .core import ValidationError
from .denoiser import EpsilonModel, GaussianFieldModel, GmmPixelModel
from .gridio import parse_json, read_grid
from .schedule import NoiseSchedule, linear_schedule

__all__ = ["ConfigError", "load_config", "build_schedule", "build_model"]

SCHEMA_VERSION = 1

# Size caps: the longest schedule, the most float64 values one (n, D) row
# array may hold (2**24 values are 128 MiB; no model may have more values per
# row), and the largest gaussian_field, whose D x D covariance and eigenbasis
# grow as D**2 (a 2**12-pixel field needs 128 MiB per D x D array).
MAX_T = 10**6
MAX_ROW_VALUES = 2**24
MAX_FIELD_DIM = 2**12
# The largest config file read; a config is a few hundred bytes.
MAX_CONFIG_BYTES = 2**20

_MISSING = object()


class ConfigError(Exception):
    """Configuration file problem; the message names the offending path."""


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


def _dim(model: dict) -> int:
    return model["height"] * model["width"] * model["channels"]


_INT = "an integer in the signed 64-bit range"

# kind: (JSON type check, what it wants). _check_range holds the range rules.
_KINDS = {
    "number": (_is_number, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "number_array": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_number(x) for x in v),
        "a non-empty array of finite numbers",
    ),
    "steps": (_is_int, _INT),
    "count": (_is_int, _INT),
    "rows": (_is_int, _INT),
    "depth": (_is_int, _INT),
    "depths": (
        lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
        "an array of signed 64-bit integers",
    ),
    "side": (_is_int, _INT),
    "map": (lambda v: _is_number(v) or isinstance(v, str), "a finite number or a string"),
}


def _check_range(kind: str, path: str, v, cfg: dict) -> None:
    """Apply ``kind``'s range rule to the non-null value ``v`` of field ``path``.

    steps: at most MAX_T. count: >= 1. rows: a count whose (n, D) array fits
    MAX_ROW_VALUES. depth: in [0, T]. depths: non-empty, distinct, each in
    [0, T]. side: in [0, min(height, width)]. map: a scalar in [0, 1] or a
    path. ``cfg`` holds the checked 'schedule' and 'model' for every rule
    that needs them.
    """
    if kind == "steps" and v > MAX_T:
        raise ConfigError(f"'{path}' must be <= {MAX_T}, got {v}")
    if kind in ("count", "rows") and v < 1:
        raise ConfigError(f"'{path}' must be >= 1")
    if kind == "rows" and v * _dim(cfg["model"]) > MAX_ROW_VALUES:
        raise ConfigError(
            f"'{path}' times height*width*channels must be <= {MAX_ROW_VALUES}, "
            f"got {v} * {_dim(cfg['model'])}"
        )
    if kind in ("depth", "depths"):
        T = cfg["schedule"]["T"]
        for t in v if kind == "depths" else [v]:
            if not 0 <= t <= T:
                raise ConfigError(f"'{path}' must lie in [0, {T}], got {t}")
        if kind == "depths" and (not v or len(set(v)) != len(v)):
            raise ConfigError(f"'{path}' must be non-empty and distinct, got {v}")
    if kind == "side":
        cap = min(cfg["model"]["height"], cfg["model"]["width"])
        if not 0 <= v <= cap:
            raise ConfigError(f"'{path}' must lie in [0, {cap}], got {v}")
    if kind == "map" and not isinstance(v, str) and not 0.0 <= v <= 1.0:
        raise ConfigError(f"'{path}' scalar must lie in [0, 1], got {v}")


def _check_section(path: str, sec: dict, fields: dict, cfg: dict) -> dict:
    """Check one section and fill in its defaults; returns a copy.

    Rejects unknown keys and missing required fields, then applies each
    field's kind to its value, default or not. ``null`` passes only where the
    default is ``None``. A section with the degradation fields also needs
    ordered sigmas and sides.
    """
    unknown = set(sec) - set(fields)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown field '{path}.{name}'")
    out = {}
    for key, (kind, default) in fields.items():
        value = sec.get(key, default)
        if value is _MISSING:
            raise ConfigError(f"missing required field '{path}.{key}'")
        if value is not None or default is not None:
            ok, want = _KINDS[kind]
            if not ok(value):
                null, got = " or null" if default is None else "", type(value).__name__
                raise ConfigError(f"'{path}.{key}' must be {want}{null}, got {got}")
            _check_range(kind, f"{path}.{key}", value, cfg)
        out[key] = value
    if "sigma_low" in out:
        if out["sigma_low"] > out["sigma_high"]:
            raise ConfigError(f"'{path}.sigma_low' must be <= '{path}.sigma_high'")
        if None not in (out["side_min"], out["side_max"]) and out["side_min"] > out["side_max"]:
            raise ConfigError(f"'{path}.side_min' must be <= '{path}.side_max'")
    return out


# Each field is declared once, as name: (kind, default). A default of None
# makes the field nullable; _MISSING makes it required.
_SCHEDULE_FIELDS = {
    "T": ("steps", _MISSING),
    "beta_start": ("number", 1e-4),
    "beta_end": ("number", 0.02),
}

_MODEL_COMMON = {
    "type": ("string", _MISSING),
    "height": ("count", _MISSING),
    "width": ("count", _MISSING),
    "channels": ("count", 1),
}

_MODEL_FIELD_FIELDS = dict(
    _MODEL_COMMON,
    mean=("number", 0.5),
    marginal_variance=("number", 0.04),
    correlation_length=("number", 2.0),
    covariance_file=("string", None),
)

_MODEL_GMM_FIELDS = dict(
    _MODEL_COMMON,
    weights=("number_array", _MISSING),
    means=("number_array", _MISSING),
    variances=("number_array", _MISSING),
)

# model.type picks the field table and the cap on height*width*channels.
_MODELS = {
    "gaussian_field": (_MODEL_FIELD_FIELDS, MAX_FIELD_DIM),
    "gmm_pixel": (_MODEL_GMM_FIELDS, MAX_ROW_VALUES),
}

# The degradation defaults, shared by 'degrade' and 'eval'.
_DEGRADE_COMMON = {
    "side_min": ("side", None),
    "side_max": ("side", None),
    "sigma_low": ("number", 4.0),
    "sigma_high": ("number", 8.0),
}

_SECTION_FIELDS = {
    "sample": {"count": ("rows", 1)},
    "fuzzy": {
        "image": ("string", _MISSING),
        "map": ("map", _MISSING),
        "count": ("rows", 1),
        "J": ("count", 5),
        "clamp_map": ("bool", False),
    },
    "stats": {
        "v_count": ("rows", 1000),
        "depths": ("depths", None),
        "reps": ("count", 1),
    },
    "attend": {
        "image": ("string", _MISSING),
        "stats_dir": ("string", _MISSING),
    },
    "degrade": dict(_DEGRADE_COMMON, image=("string", None)),
    "eval": dict(
        _DEGRADE_COMMON,
        trials=("rows", 20),
        J=("count", 2),
        depths=("depths", None),
        reps=("count", 1),
        v_count=("rows", 200),
        baseline_depth=("depth", None),
        record_artifacts=("bool", False),
    ),
}


def load_config(path) -> dict:
    """Parse and validate a config file; returns the normalized dict.

    The result always carries 'schedule' and 'model' plus whichever command
    sections the file defined (with defaults filled in). The path must be a
    regular file of at most ``MAX_CONFIG_BYTES``. It is stat'ed before it is
    opened and read only up to its stat size, so a FIFO, a device or a file
    that grows fails instead of blocking or filling memory.
    """
    path = Path(path)
    try:
        info = path.stat()
        if not stat.S_ISREG(info.st_mode):
            raise ConfigError(f"cannot read config {path}: not a regular file")
        if info.st_size > MAX_CONFIG_BYTES:
            raise ConfigError(
                f"config {path} has {info.st_size} bytes, more than {MAX_CONFIG_BYTES}"
            )
        with open(path, "rb") as fh:
            raw = parse_json(fh.read(info.st_size))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
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
    out["schedule"] = _check_section("schedule", raw["schedule"], _SCHEDULE_FIELDS, out)

    mtype = raw["model"].get("type")
    if mtype is None:
        raise ConfigError("missing required field 'model.type'")
    if not isinstance(mtype, str) or mtype not in _MODELS:
        raise ConfigError(
            f"'model.type' must be 'gaussian_field' or 'gmm_pixel', got {mtype!r}"
        )
    fields, max_dim = _MODELS[mtype]
    out["model"] = _check_section("model", raw["model"], fields, out)
    D = _dim(out["model"])
    if D > max_dim:
        raise ConfigError(
            f"'model' height*width*channels must be <= {max_dim} for {mtype}, got {D}"
        )

    for name, fields in _SECTION_FIELDS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigError(f"'{name}' must be an object")
            out[name] = _check_section(name, raw[name], fields, out)
    return out


def section(cfg: dict, name: str) -> dict:
    """The command section ``name`` of a loaded config.

    A config without that section gets its defaults, checked against the
    config (a default row count may not fit the model) but not stored in it.
    If a field of the section has no default, the section is required and
    this raises.
    """
    if name in cfg:
        return cfg[name]
    fields = _SECTION_FIELDS[name]
    if any(default is _MISSING for _, default in fields.values()):
        raise ConfigError(f"config has no '{name}' section, required by this command")
    return _check_section(name, {}, fields, cfg)


def build_schedule(cfg: dict) -> NoiseSchedule:
    sched = cfg["schedule"]
    try:
        return linear_schedule(sched["T"], sched["beta_start"], sched["beta_end"])
    except ValidationError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def build_model(cfg: dict, base_dir=None) -> EpsilonModel:
    """Construct the oracle named by the config's model section.

    covariance_file paths resolve relative to base_dir (normally the config
    file's directory); the file must hold a DxD single-channel grid, which its
    header shows before the payload is read.
    """
    spec = cfg["model"]
    shape = (spec["height"], spec["width"], spec["channels"])
    try:
        if spec["type"] == "gaussian_field":
            if spec["covariance_file"] is not None:
                cov_path = Path(spec["covariance_file"])
                if base_dir is not None and not cov_path.is_absolute():
                    cov_path = Path(base_dir) / cov_path
                D = shape[0] * shape[1] * shape[2]
                cov = read_grid(cov_path, {(D, D, 1)}).values[:, :, 0]
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
