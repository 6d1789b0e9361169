"""Synthetic degradations, statistical metrics, and the end-to-end
correction experiment: degrade an oracle draw, locate the damage with the
attention map, and repair it with fuzzy-conditioned sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import projection
from .core import Grid, RngStream, RowStreams, ValidationError
from .denoiser import EpsilonModel
from .gridio import write_grid
from .projection import attention_map, default_depths, validation_stats, weight_from_attention
from .sampler import fuzzy_sample
from .schedule import NoiseSchedule

__all__ = [
    "DegradeParams",
    "DegradationRecord",
    "degrade",
    "pixel_auc",
    "masked_mse",
    "run_correction_experiment",
]


# ---------------------------------------------------------------------------
# degradation


@dataclass(frozen=True)
class DegradeParams:
    """Rectangle-degradation parameters.

    Side lengths are drawn uniformly from [side_min, side_max] (inclusive,
    per axis); the replacement threshold uniformly from
    [threshold_low, threshold_high]. Use :meth:`for_model` to derive them
    from a model: sides in [h/4, h/2] unless overridden, threshold between
    sigma_low and sigma_high marginal standard deviations above the data mean.
    """

    side_min: int
    side_max: int
    threshold_low: float
    threshold_high: float

    def __post_init__(self) -> None:
        if self.side_min < 0 or self.side_max < self.side_min:
            raise ValidationError(
                f"need 0 <= side_min <= side_max, got [{self.side_min}, {self.side_max}]"
            )
        if self.threshold_high < self.threshold_low:
            raise ValidationError("threshold_high must be >= threshold_low")

    @classmethod
    def for_model(
        cls,
        model: EpsilonModel,
        sigma_low: float,
        sigma_high: float,
        side_min: int | None,
        side_max: int | None,
    ) -> "DegradeParams":
        h = model.shape[0]
        mean = model.marginal_mean()
        std = model.marginal_std()
        return cls(
            side_min=max(1, h // 4) if side_min is None else int(side_min),
            side_max=max(1, h // 2) if side_max is None else int(side_max),
            threshold_low=mean + sigma_low * std,
            threshold_high=mean + sigma_high * std,
        )


@dataclass(frozen=True, eq=False)  # mask is an array, so field-wise == is ambiguous
class DegradationRecord:
    """Ground truth of one synthetic degradation.

    rect is (x0, y0, x1, y1) with half-open bounds: columns [x0, x1) and rows
    [y0, y1). mask is the (h, w, 1) array that is 1 inside the rectangle and
    0 outside.
    """

    rect: tuple[int, int, int, int]
    threshold: float
    mask: np.ndarray

    @property
    def area(self) -> int:
        x0, y0, x1, y1 = self.rect
        return max(0, x1 - x0) * max(0, y1 - y0)

    def to_dict(self) -> dict:
        return {"rect": list(self.rect), "threshold": self.threshold, "area": self.area}


def _uniform_int(rng: RngStream, low: int, high: int) -> int:
    """Uniform integer in [low, high] inclusive; consumes exactly one draw."""
    span = high - low + 1
    u = float(rng.uniforms(1)[0])  # u in (0, 1]
    return low + min(int(u * span), span - 1)


def degrade(
    x: np.ndarray, params: DegradeParams, rng: RngStream
) -> tuple[np.ndarray, DegradationRecord]:
    """Copy of the (h, w, c) image x with a random rectangle set to a random
    out-of-range threshold.

    Every pixel inside the rectangle is set to the sampled threshold on all
    channels; everything outside is untouched bit-exactly. Draw order is
    pinned (side_h, side_w, y0, x0, threshold) so records are reproducible.
    A zero-area configuration (side_min = side_max = 0) returns an unchanged copy.
    """
    out = np.array(x, dtype=np.float64, copy=True)
    h, w, _ = out.shape
    if params.side_max > min(h, w):
        raise ValidationError(
            f"side_max {params.side_max} exceeds image dims {(h, w)}"
        )
    side_h = _uniform_int(rng, params.side_min, params.side_max)
    side_w = _uniform_int(rng, params.side_min, params.side_max)
    y0 = _uniform_int(rng, 0, h - side_h)
    x0 = _uniform_int(rng, 0, w - side_w)
    u = float(rng.uniforms(1)[0])
    threshold = params.threshold_low + u * (params.threshold_high - params.threshold_low)

    mask = np.zeros((h, w, 1))
    mask[y0 : y0 + side_h, x0 : x0 + side_w, :] = 1.0
    out[y0 : y0 + side_h, x0 : x0 + side_w, :] = threshold
    return out, DegradationRecord((x0, y0, x0 + side_w, y0 + side_h), threshold, mask)


# ---------------------------------------------------------------------------
# metrics


def pixel_auc(score: np.ndarray, mask: np.ndarray) -> float:
    """ROC AUC of (h, w, c) per-pixel scores (channel mean) against the binary
    (h, w, 1) mask, midrank ties."""
    if score.shape[:2] != mask.shape[:2]:
        raise ValidationError(f"score dims {score.shape} != mask dims {mask.shape}")
    sc = score.mean(axis=2).reshape(-1)
    mk = mask[:, :, 0].reshape(-1)
    pos = mk == 1.0
    neg = mk == 0.0
    if not np.all(pos | neg):
        raise ValidationError("mask must be binary (0/1)")
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("mask must contain both classes")
    _, inverse, counts = np.unique(sc, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0
    ranks = midranks[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def masked_mse(
    a: np.ndarray, b: np.ndarray, mask: np.ndarray, inside: bool = True
) -> float | None:
    """Mean squared difference of two (h, w, c) images over the pixels the
    (h, w, 1) mask selects.

    Returns None when the selected region is empty.
    """
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")
    sel = mask[:, :, 0] == (1.0 if inside else 0.0)
    if not sel.any():
        return None
    diff = a[sel] - b[sel]
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# end-to-end correction experiment


def _median(values: list[float]) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.median(vals)) if vals else None


def run_correction_experiment(
    model: EpsilonModel,
    s: NoiseSchedule,
    section: dict,
    rng: RngStream,
    artifacts_dir: str | Path | None,
) -> dict:
    """Draw clean oracle images, degrade, detect, and repair them.

    ``section`` is a validated ``eval`` config section. Depths default to
    :func:`~fuzzydiff.projection.default_depths` and the baseline depth to
    0.4T. Sides of 0 draw empty rectangles, which makes the run a fixed-point
    check: the map should stay near 1 and the output near the input. With
    ``artifacts_dir`` set, every trial's grids are written there. Returns the
    JSON-able report: per-trial metrics plus aggregates, all recomputable
    from (config, seed).

    Stream layout: child 0 draws the validation set, child 1 feeds
    validation_stats, and trial i uses child (2 + i) with sub-children for
    its clean draw, degradation, attention, fuzzy repair, and the projection
    baseline. Trials are therefore independent and order-insensitive: the
    clean draws and degradations run per trial, then attention, repair and
    baseline each run as one (trials, D) chain on per-trial row streams.
    """
    depths = default_depths(s.T) if section["depths"] is None else tuple(section["depths"])
    baseline_t = section["baseline_depth"]
    if baseline_t is None:
        baseline_t = max(1, round(0.4 * s.T))
    params = DegradeParams.for_model(
        model, section["sigma_low"], section["sigma_high"], section["side_min"], section["side_max"]
    )

    v_rows = model.sample_x0(section["v_count"], rng.child(0))
    stats = validation_stats(model, s, v_rows, list(depths), section["reps"], rng.child(1))

    art_dir: Path | None = None
    if artifacts_dir is not None:
        art_dir = Path(artifacts_dir)
        art_dir.mkdir(parents=True, exist_ok=True)

    marginal_var = model.marginal_std() ** 2
    h, w, _ = model.shape
    n = section["trials"]
    streams = RowStreams(rng.child(2 + i) for i in range(n))
    cleans, damaged, records = [], [], []
    for tr in streams.streams:
        clean = model.sample_x0(1, tr.child(0))[0].reshape(model.shape)
        degraded, record = degrade(clean, params, tr.child(1))
        cleans.append(clean)
        damaged.append(degraded)
        records.append(record)

    batch = np.stack(damaged)
    amaps = attention_map(batch, stats, model, s, streams.child(2))
    weights = weight_from_attention(amaps)
    corrected = fuzzy_sample(model, s, batch, weights, section["J"], n, streams.child(3))
    baseline = projection.project_reconstruct_array(
        model, s, batch.reshape(n, -1), baseline_t, streams.child(4)
    )
    corrected, baseline = corrected.reshape(batch.shape), baseline.reshape(batch.shape)

    trials: list[dict] = []
    reductions: list[float] = []
    baseline_wins = comparable = 0
    for i, (clean, degraded, record) in enumerate(zip(cleans, damaged, records)):
        # AUC needs both classes: a rectangle covering every pixel has no negatives.
        scored = 0 < record.area < h * w
        trial = {
            "trial": i,
            "degradation": record.to_dict(),
            "auc": pixel_auc(amaps[i], record.mask) if scored else None,
            "mse_in_degraded": masked_mse(degraded, clean, record.mask, inside=True),
            "mse_in_corrected": masked_mse(corrected[i], clean, record.mask, inside=True),
            "mse_in_baseline": masked_mse(baseline[i], clean, record.mask, inside=True),
            "mse_out_corrected": masked_mse(corrected[i], clean, record.mask, inside=False),
            "mse_out_baseline": masked_mse(baseline[i], clean, record.mask, inside=False),
            "mse_total_corrected": float(np.mean(np.square(corrected[i] - clean))),
            "mean_weight": float(weights[i].mean()),
        }
        trials.append(trial)
        before, after = trial["mse_in_degraded"], trial["mse_in_corrected"]
        if before is not None and after is not None and before > 0:
            reductions.append(1.0 - after / before)
        out_c, out_b = trial["mse_out_corrected"], trial["mse_out_baseline"]
        if out_c is not None and out_b is not None:
            comparable += 1
            baseline_wins += out_c < out_b

        if art_dir is not None:
            for name, g in (
                ("clean", clean),
                ("degraded", degraded),
                ("attention", amaps[i]),
                ("weights", weights[i]),
                ("corrected", corrected[i]),
                ("baseline", baseline[i]),
            ):
                write_grid(art_dir / f"trial_{i:03d}_{name}.fdg", Grid(g))

    aggregates = {
        "median_auc": _median([t["auc"] for t in trials]),
        "median_masked_reduction": _median(reductions),
        "median_mse_in_corrected": _median([t["mse_in_corrected"] for t in trials]),
        "median_mse_in_degraded": _median([t["mse_in_degraded"] for t in trials]),
        "median_mse_out_corrected": _median([t["mse_out_corrected"] for t in trials]),
        "median_mse_out_baseline": _median([t["mse_out_baseline"] for t in trials]),
        "median_mse_total_corrected": _median([t["mse_total_corrected"] for t in trials]),
        "unmasked_wins_vs_baseline": baseline_wins,
        "unmasked_comparisons": comparable,
        "oracle_marginal_variance": marginal_var,
    }
    echo = {k: v for k, v in section.items() if k != "record_artifacts"}
    echo.update(
        depths=list(depths),
        baseline_depth=baseline_t,
        model_fingerprint=model.fingerprint(),
        schedule_fingerprint=s.fingerprint(),
        schedule_T=s.T,
    )
    return {
        "schema_version": 1,
        "config": echo,
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "trials": trials,
        "aggregates": aggregates,
    }
