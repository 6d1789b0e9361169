"""Projection attention: reconstruct through partial diffusion, normalize the
discrepancy against validation statistics, and turn the result into a
conditioning weight map.

The anomaly score of a pixel is how unusual its reconstruction error is,
measured in validation standard deviations and truncated into [1, 6]. Scores
are averaged over a set of projection depths PS. The guidance map inverts
that: score 1 (within one sigma of normal) maps to weight 1, score 6 maps to
weight 0.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Grid, RngStream, RowStreams, ValidationError
from .denoiser import EpsilonModel
from .gridio import parse_json, read_grid, write_grid
from .sampler import _reverse_step_array
from .schedule import NoiseSchedule

__all__ = [
    "ValidationStats",
    "project_reconstruct_array",
    "default_depths",
    "validation_stats",
    "attention_map",
    "attention_from_discrepancies",
    "weight_from_attention",
]

SCORE_MIN = 1.0
SCORE_MAX = 6.0
SIGMA_FLOOR_SCALE = 1e-6

_MANIFEST_NAME = "manifest.json"
# The largest stats manifest read. The one ValidationStats.save writes lists
# its depths, distinct steps in [0, 10**6] (config.MAX_T), one per indented
# line, so it stays under 12 MB.
MAX_STATS_MANIFEST_BYTES = 2**24


@dataclass(frozen=True)
class ValidationStats:
    """Pixel-wise discrepancy statistics of in-distribution reconstructions.

    For each depth t, mu[t] and sigma[t] are the mean and standard deviation
    of the reconstruction discrepancy over the validation set, with sigma
    floored at sigma_floor so near-deterministic pixels cannot blow up the
    normalized score. Fingerprints tie the statistics to the exact model and
    schedule they were computed under.
    """

    depths: tuple[int, ...]
    mu: dict[int, Grid]
    sigma: dict[int, Grid]
    v_count: int
    reps: int
    sigma_floor: float
    model_fingerprint: str
    schedule_fingerprint: str

    def __post_init__(self) -> None:
        if not self.depths or len(set(self.depths)) != len(self.depths):
            raise ValidationError(f"stats need distinct depths, got {list(self.depths)}")
        if self.reps < 1:
            raise ValidationError(f"stats reps must be >= 1, got {self.reps}")
        shape = None
        for t in self.depths:
            if t not in self.mu or t not in self.sigma:
                raise ValidationError(f"stats missing grids for depth {t}")
            shape = shape or self.mu[t].shape
            if self.mu[t].shape != shape or self.sigma[t].shape != shape or shape[2] != 1:
                raise ValidationError(f"mu/sigma at depth {t}: shapes differ or not single-channel")
            if self.mu[t].values.min() < 0.0:
                raise ValidationError(f"mu at depth {t} has negative entries")
            if self.sigma[t].values.min() < self.sigma_floor:
                raise ValidationError(f"sigma at depth {t} below the floor")

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema_version": 1,
            "depths": list(self.depths),
            "v_count": self.v_count,
            "reps": self.reps,
            "sigma_floor": self.sigma_floor,
            "model_fingerprint": self.model_fingerprint,
            "schedule_fingerprint": self.schedule_fingerprint,
        }
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        for t in self.depths:
            write_grid(directory / f"mu_{t:05d}.fdg", self.mu[t])
            write_grid(directory / f"sigma_{t:05d}.fdg", self.sigma[t])

    @classmethod
    def load(cls, directory, shape=None) -> "ValidationStats":
        """Statistics saved by :meth:`save`; with ``shape`` given, a grid of
        another (h, w, c) shape is refused after its header. The manifest is
        read up to its stat size, and refused unread if that is too large."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no stats manifest at {manifest_path}")
        size = manifest_path.stat().st_size
        if size > MAX_STATS_MANIFEST_BYTES:
            limit = MAX_STATS_MANIFEST_BYTES
            raise ValidationError(f"stats manifest {manifest_path} has {size} bytes, over {limit}")
        with open(manifest_path, "rb") as fh:
            text = fh.read(size)
        try:
            manifest = parse_json(text)
            version = manifest.get("schema_version")
            if version != 1:
                raise ValidationError(f"unsupported stats schema: {version!r}")
            depths = tuple(int(t) for t in manifest["depths"])
            meta = dict(
                v_count=int(manifest["v_count"]),
                reps=int(manifest["reps"]),
                sigma_floor=float(manifest["sigma_floor"]),
                model_fingerprint=str(manifest["model_fingerprint"]),
                schedule_fingerprint=str(manifest["schedule_fingerprint"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed stats manifest {manifest_path}: {exc}") from exc
        shapes = None if shape is None else {tuple(shape)}
        mu = {t: read_grid(directory / f"mu_{t:05d}.fdg", shapes) for t in depths}
        sigma = {t: read_grid(directory / f"sigma_{t:05d}.fdg", shapes) for t in depths}
        return cls(depths=depths, mu=mu, sigma=sigma, **meta)

    def check_compatible(self, model: EpsilonModel, s: NoiseSchedule) -> None:
        if self.model_fingerprint != model.fingerprint():
            raise ValidationError("stats were computed under a different model (stale cache?)")
        if self.schedule_fingerprint != s.fingerprint():
            raise ValidationError("stats were computed under a different schedule (stale cache?)")
        h, w, _ = model.shape
        if self.mu[self.depths[0]].shape != (h, w, 1):
            raise ValidationError(f"stats grids do not match the model's {h}x{w} pixels")
        if not all(0 <= t <= s.T for t in self.depths):
            raise ValidationError(f"stats depths {list(self.depths)} leave [0, {s.T}]")


# ---------------------------------------------------------------------------
# reconstruction and discrepancy


def project_reconstruct_array(
    model: EpsilonModel, s: NoiseSchedule, x: np.ndarray, t: int, rng: RngStream | RowStreams
) -> np.ndarray:
    """Noise (n, D) rows to level t, then run the reverse chain back down to 0; t=0 is exact.

    x is never written. The chain owns two (n, D) buffers that swap roles
    every step, so its steps allocate no (n, D) arrays of their own.
    """
    t = s.check_step(t, lowest=0)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValidationError(f"rows of shape {x.shape} do not fit model dim {model.dim}")
    if t == 0:
        return np.array(x, dtype=np.float64, copy=True)
    eps = rng.normals(x.size).reshape(x.shape)
    eps *= s.sqrt_one_minus_alpha_bar[t]
    xt = s.sqrt_alpha_bar[t] * x
    xt += eps
    spare = np.empty_like(xt)
    for step in range(t, 0, -1):
        xt, spare = _reverse_step_array(model, xt, step, s, rng, out=spare), xt
    return xt


def _discrepancy_rows(a: np.ndarray, b: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Per-pixel Euclidean distance across channels; rows (n, D) -> (n, h*w)."""
    h, w, c = shape
    diff = (a - b).reshape(-1, h * w, c)
    return np.sqrt(np.sum(diff * diff, axis=2))


def _depth_discrepancies(
    model: EpsilonModel,
    s: NoiseSchedule,
    X: np.ndarray,
    depths: Iterable[int],
    reps: int,
    rng: RngStream | RowStreams,
) -> Iterator[np.ndarray]:
    """Per depth, the (n, h*w) discrepancy of X averaged over ``reps`` reconstructions.

    Depth k draws only from rng.child(k), so validation statistics and the
    attention map of a probe are computed by the same code on the same
    stream layout. Yields one depth at a time, so only one is held.
    """
    reps = int(reps)
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    h, w, _ = model.shape
    for k, t in enumerate(depths):
        stream = rng.child(k)
        acc = np.zeros((X.shape[0], h * w))
        for _ in range(reps):
            xhat = project_reconstruct_array(model, s, X, t, stream)
            acc += _discrepancy_rows(X, xhat, model.shape)
        yield acc / reps


# ---------------------------------------------------------------------------
# validation statistics


def default_depths(T: int) -> tuple[int, ...]:
    """The conventional projection set {0.3T, 0.4T, 0.5T, 0.6T}, rounded.

    Depths that collide for tiny T appear once.
    """
    return tuple(dict.fromkeys(max(1, round(frac * T)) for frac in (0.3, 0.4, 0.5, 0.6)))


def validation_stats(
    model: EpsilonModel,
    s: NoiseSchedule,
    X: np.ndarray,
    PS: list[int],
    reps: int,
    rng: RngStream | RowStreams,
) -> ValidationStats:
    """Mean and std of reconstruction discrepancy per pixel and depth.

    X holds the validation set as (n, D) rows. Each depth consumes draws
    only from its own child stream, so the set of depths can be processed in
    any execution order with identical results; accumulation follows the
    order of PS. Each member's discrepancy sample is the average over
    ``reps`` independent reconstructions, computed by the same loop
    :func:`attention_map` runs for the probe image.

    Depth 0 is allowed and gives the degenerate exact reconstruction (mu = 0,
    sigma at the floor): useful as a fixed-point check of the whole pipeline.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"validation set must be non-empty (n, D) rows, got {X.shape}")
    if X.shape[1] != model.dim:
        raise ValidationError(f"validation rows have width {X.shape[1]}, model has {model.dim}")
    depths = [s.check_step(t, lowest=0) for t in PS]  # ValidationStats refuses repeats

    n = X.shape[0]
    floor = SIGMA_FLOOR_SCALE * model.marginal_std()

    h, w, _ = model.shape
    mu: dict[int, Grid] = {}
    sigma: dict[int, Grid] = {}
    for t, d in zip(depths, _depth_discrepancies(model, s, X, depths, reps, rng)):
        mu[t] = Grid(d.mean(axis=0).reshape(h, w, 1))
        sig = np.maximum(d.std(axis=0), floor)
        sigma[t] = Grid(sig.reshape(h, w, 1))

    return ValidationStats(
        depths=tuple(depths),
        mu=mu,
        sigma=sigma,
        v_count=n,
        reps=int(reps),
        sigma_floor=floor,
        model_fingerprint=model.fingerprint(),
        schedule_fingerprint=s.fingerprint(),
    )


# ---------------------------------------------------------------------------
# attention


def attention_from_discrepancies(
    dmaps: dict[int, np.ndarray], stats: ValidationStats
) -> np.ndarray:
    """Normalize per-depth (..., h, w, 1) discrepancy maps against stats and average.

    Pure function of its inputs: score_t = clip((d_t - mu_t) / sigma_t, 1, 6)
    per pixel, averaged over stats.depths. Returns the attention maps in the
    shape of the inputs.
    """
    acc = None
    for t in stats.depths:
        if t not in dmaps:
            raise ValidationError(f"missing discrepancy map for depth {t}")
        score = (dmaps[t] - stats.mu[t].values) / stats.sigma[t].values
        score = np.clip(score, SCORE_MIN, SCORE_MAX)
        acc = score if acc is None else acc + score
    assert acc is not None
    return acc / len(stats.depths)


def attention_map(
    x: np.ndarray,
    stats: ValidationStats,
    model: EpsilonModel,
    s: NoiseSchedule,
    rng: RngStream | RowStreams,
) -> np.ndarray:
    """(n, h, w, 1) anomaly maps of the n (h, w, c) images in x over stats.depths.

    Refuses statistics whose fingerprints do not match the live model and
    schedule. Depth k uses draws from rng.child(k), the same stream layout
    validation_stats uses, and averages stats.reps reconstructions per depth,
    as the statistics did, so the normalization is calibrated. With
    ``RowStreams``, image i draws only from its own stream, so its map is the
    one a batch of one on that stream gives.
    """
    stats.check_compatible(model, s)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != model.shape:
        raise ValidationError(f"image shape {x.shape} is not (n, *{model.shape})")

    n, h, w, _ = x.shape
    rows = _depth_discrepancies(model, s, x.reshape(n, -1), stats.depths, stats.reps, rng)
    dmaps = {t: d.reshape(n, h, w, 1) for t, d in zip(stats.depths, rows)}
    return attention_from_discrepancies(dmaps, stats)


def weight_from_attention(a: np.ndarray) -> np.ndarray:
    """Map (..., h, w, 1) attention maps onto conditioning weights of the same shape.

    The score range [1, 6] is first rescaled to [0, 1]; the weight is the
    square of the remaining headroom: m = (1 - (A - 1)/5)^2. A pixel within
    one sigma of normal keeps full conditioning (m=1); a 6-sigma pixel is
    fully regenerated (m=0).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (3, 4) or a.shape[-1] != 1:
        raise ValidationError(f"attention maps must be single-channel (h, w, 1), got {a.shape}")
    if not (a.min() >= SCORE_MIN and a.max() <= SCORE_MAX):
        raise ValidationError(
            f"attention values must lie in [{SCORE_MIN}, {SCORE_MAX}], got "
            f"[{a.min():.6g}, {a.max():.6g}]"
        )
    scaled = (a - SCORE_MIN) / (SCORE_MAX - SCORE_MIN)
    return (1.0 - scaled) ** 2
