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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Grid, RngStream, RowStreams, ValidationError
from .denoiser import EpsilonModel
from .gridio import _is_int, _is_number, read_grid, read_json, write_grid, write_json
from .sampler import _reverse_step_array
from .schedule import NoiseSchedule

__all__ = [
    "ValidationStats",
    "project_reconstruct_array",
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
# The manifest's fields, each checked as the JSON type ``save`` writes.
_MANIFEST_FIELDS = {
    "depths": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "an array of integers"),
    "v_count": (_is_int, "an integer"),
    "reps": (_is_int, "an integer"),
    "sigma_floor": (_is_number, "a finite number"),
    "model_fingerprint": (lambda v: isinstance(v, str), "a string"),
    "schedule_fingerprint": (lambda v: isinstance(v, str), "a string"),
}


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
        if self.v_count < 1:
            raise ValidationError(f"stats v_count must be >= 1, got {self.v_count}")
        if self.reps < 1:
            raise ValidationError(f"stats reps must be >= 1, got {self.reps}")
        if not self.sigma_floor > 0.0:
            raise ValidationError(f"stats sigma_floor must be > 0, got {self.sigma_floor}")
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
        write_json(directory / _MANIFEST_NAME, manifest)
        for t in self.depths:
            write_grid(directory / f"mu_{t:05d}.fdg", self.mu[t])
            write_grid(directory / f"sigma_{t:05d}.fdg", self.sigma[t])

    @classmethod
    def load(cls, directory, model=None, s=None) -> "ValidationStats":
        """Statistics saved by :meth:`save`, whose manifest fields hold the JSON types
        it writes. Given the live ``model`` and schedule ``s``, the fingerprints and
        depths are checked before any grid is opened, and each grid's shape after
        its header."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        try:
            manifest = read_json(manifest_path, MAX_STATS_MANIFEST_BYTES)
            version = manifest.get("schema_version")
            if not _is_int(version) or version != 1:
                raise ValidationError(f"unsupported stats schema: {version!r}")
            fields = {}
            for key, (ok, want) in _MANIFEST_FIELDS.items():
                if not ok(manifest[key]):
                    raise TypeError(f"'{key}' must be {want}")
                fields[key] = manifest[key]
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed stats manifest {manifest_path}: {exc}") from exc
        fields["depths"] = depths = tuple(fields["depths"])
        fields["sigma_floor"] = float(fields["sigma_floor"])
        if model is not None:
            _check_source(fields, model, s)
        shapes = None if model is None else {(*model.shape[:2], 1)}
        mu = {t: read_grid(directory / f"mu_{t:05d}.fdg", shapes) for t in depths}
        sigma = {t: read_grid(directory / f"sigma_{t:05d}.fdg", shapes) for t in depths}
        return cls(mu=mu, sigma=sigma, **fields)

    def check_compatible(self, model: EpsilonModel, s: NoiseSchedule) -> None:
        _check_source(vars(self), model, s)
        h, w, _ = model.shape
        if self.mu[self.depths[0]].shape != (h, w, 1):
            raise ValidationError(f"stats grids do not match the model's {h}x{w} pixels")


def _check_source(fields: dict, model: EpsilonModel, s: NoiseSchedule) -> None:
    """Refuse stats ``fields`` from another model or schedule, or with depths off [0, T]."""
    if fields["model_fingerprint"] != model.fingerprint():
        raise ValidationError("stats were computed under a different model (stale cache?)")
    if fields["schedule_fingerprint"] != s.fingerprint():
        raise ValidationError("stats were computed under a different schedule (stale cache?)")
    if not all(0 <= t <= s.T for t in fields["depths"]):
        raise ValidationError(f"stats depths {list(fields['depths'])} leave [0, {s.T}]")


# ---------------------------------------------------------------------------
# reconstruction and discrepancy


def project_reconstruct_array(
    model: EpsilonModel, s: NoiseSchedule, x: np.ndarray, t: int, rng: RngStream | RowStreams
) -> np.ndarray:
    """Noise (n, D) rows to level t, then run the reverse chain back down to 0; t=0 is exact.

    x is never written. The chain owns two (n, D) buffers that swap roles
    every step, so its steps allocate no (n, D) arrays of their own: each
    step draws its noise into the state it replaces. The first is its first
    draw, noised to level t in place; the second first holds sqrt(abar_t) * x.
    """
    t = s.check_step(t, lowest=0)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValidationError(f"rows of shape {x.shape} do not fit model dim {model.dim}")
    if t == 0:
        return np.array(x, dtype=np.float64, copy=True)
    xt = rng.normals(x.size).reshape(x.shape)
    xt *= s.sqrt_one_minus_alpha_bar[t]
    spare = np.multiply(s.sqrt_alpha_bar[t], x)
    xt += spare
    for step in range(t, 0, -1):
        xt, spare = _reverse_step_array(model, xt, step, s, rng, noise=xt, out=spare), xt
    return xt


def _discrepancy_rows(a: np.ndarray, b: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Per-pixel Euclidean distance across channels; rows (n, D) -> (n, h*w).

    It spends b: the difference and its square are formed in b's buffer.
    """
    h, w, c = shape
    diff = np.subtract(a, b, out=b).reshape(-1, h * w, c)
    diff *= diff
    d = np.sum(diff, axis=2)
    return np.sqrt(d, out=d)


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
    stream layout. Yields one depth at a time and drops it before the next
    depth's chain runs, so a caller that drops it too holds only one.
    """
    reps = int(reps)
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    shape = model.shape
    for k, t in enumerate(depths):
        stream = rng.child(k)
        # The sum starts from the first reconstruction: no discrepancy is
        # -0.0, so this gives the bytes of a sum started from zeros.
        acc = _discrepancy_rows(X, project_reconstruct_array(model, s, X, t, stream), shape)
        for _ in range(reps - 1):
            acc += _discrepancy_rows(X, project_reconstruct_array(model, s, X, t, stream), shape)
        acc /= reps
        yield acc
        del acc


# ---------------------------------------------------------------------------
# validation statistics


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
    rows = _depth_discrepancies(model, s, X, depths, reps, rng)
    for t in depths:
        # Not zip: its reused result tuple would keep depth k's rows alive
        # while the chain of depth k + 1 runs.
        d = next(rows)
        mu[t] = Grid(d.mean(axis=0).reshape(h, w, 1))
        sig = np.maximum(d.std(axis=0), floor)
        sigma[t] = Grid(sig.reshape(h, w, 1))
        del d

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
        score = np.subtract(dmaps[t], stats.mu[t].values)  # a depth's one new array
        score /= stats.sigma[t].values
        np.clip(score, SCORE_MIN, SCORE_MAX, out=score)
        acc = score if acc is None else np.add(acc, score, out=acc)
    assert acc is not None
    return np.divide(acc, len(stats.depths), out=acc)


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
