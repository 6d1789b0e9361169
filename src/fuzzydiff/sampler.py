"""Ancestral diffusion sampling and fuzzy per-pixel conditioning.

Everything runs on (n, D) float64 arrays so batches share one vectorized
trajectory. Given a :class:`~fuzzydiff.core.RowStreams`, row i of a batch
draws only from its own stream, so it sees the same draws as a one-row chain
on that stream.

Draw order per trajectory is part of the determinism contract:

1. the start state x_T (n*D normals),
2. then per step t = T..1 and inner iteration j = 1..J, in order:
   the reprojection noise (t > 1 only), the reverse-step noise (t > 1 only),
   the renoise draw (only when j < J and t > 1).

Unconditional sampling is the J=1, m=0 special case of the same loop shape.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream, RowStreams, ValidationError
from .denoiser import EpsilonModel
from .schedule import NoiseSchedule

__all__ = [
    "ancestral_sample_array",
    "fuzzy_fuse",
    "fuzzy_sample",
]


# ---------------------------------------------------------------------------
# reverse process


def _reverse_step_array(
    model: EpsilonModel, x: np.ndarray, t: int, s: NoiseSchedule, rng: RngStream | RowStreams
) -> np.ndarray:
    """One ancestral step t -> t-1 on (n, D) rows; drawless at t=1 (beta_tilde[1] = 0)."""
    eps_hat = model.predict_array(x, t, s)
    scale = (1.0 - s.alpha[t]) / s.sqrt_one_minus_alpha_bar[t]
    mean = (x - scale * eps_hat) / np.sqrt(s.alpha[t])
    if t == 1:
        return mean
    eps2 = rng.normals(x.size).reshape(x.shape)
    return mean + np.sqrt(s.beta_tilde[t]) * eps2


def ancestral_sample_array(
    model: EpsilonModel, s: NoiseSchedule, n: int, rng: RngStream | RowStreams
) -> np.ndarray:
    """n unconditional draws as (n, D) rows, iterating the reverse chain from noise."""
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    D = model.dim
    x = rng.normals(n * D).reshape(n, D)
    for t in range(s.T, 0, -1):
        x = _reverse_step_array(model, x, t, s, rng)
    return x


# ---------------------------------------------------------------------------
# fuzzy conditioning


def fuzzy_fuse(
    x_synth: np.ndarray,
    x_reproj: np.ndarray,
    x_cond: np.ndarray,
    m,
    t: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """Blend the synthetic and reprojected branches at per-pixel strength m.

    Computes, per pixel,

        base + (m * x_reproj + (1 - m) * x_synth - base) / sqrt(1 - 2m + 2m^2)

    with base = sqrt(alpha_bar[t-1]) * x_cond, for 1 <= t <= T and arrays that
    broadcast against each other. The divisor restores the variance both
    branches carry at level t-1, so the fused pixel stays on the diffusion
    marginal. m=0 returns x_synth and m=1 returns x_reproj, bit-exact.
    """
    base = s.sqrt_alpha_bar[t - 1] * x_cond
    blend = m * x_reproj + (1.0 - m) * x_synth
    fused = base + (blend - base) / np.sqrt(1.0 - 2.0 * m + 2.0 * m * m)
    # The algebra is the identity at the endpoints, but float blending is not
    # bit-exact there; the boundary contract is, so select explicitly.
    fused = np.where(m == 0.0, x_synth, fused)
    fused = np.where(m == 1.0, x_reproj, fused)
    return fused


def fuzzy_sample(
    model: EpsilonModel,
    s: NoiseSchedule,
    x_cond: np.ndarray,
    m,
    J: int,
    n: int,
    rng: RngStream | RowStreams,
) -> np.ndarray:
    """n samples as (n, D) rows, conditioned on the image x_cond at per-pixel strength m.

    x_cond is one image of the model's (h, w, c) shape, or n of them as
    (n, h, w, c), one per sample. m is a scalar, an (h, w, 1) or (h, w, c)
    array, or n such maps as (n, h, w, 1) or (n, h, w, c), with every entry
    in [0, 1]; a single-channel map broadcasts across channels. m=1 pixels
    reproduce x_cond exactly; m=0 pixels are unconditional.

    Per step t, the inner loop runs J times: draw the reprojected branch at
    level t-1, take one reverse step from the current level-t state, fuse, and
    (except on the last iteration) renoise the fused result back to level t.
    The final fusion is carried as the level t-1 state. At t=1 the loop is
    draw-free and idempotent, so it runs once. J >= 1 is the number of
    harmonization iterations per step; J=1 disables harmonization.
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    if J < 1:
        raise ValidationError(f"J must be >= 1, got {J}")
    h, w, c = model.shape
    x_cond = np.asarray(x_cond, dtype=np.float64)
    if x_cond.shape not in (model.shape, (n, h, w, c)):
        raise ValidationError(
            f"image shape {x_cond.shape} is neither {model.shape} nor {(n, h, w, c)}"
        )
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 0:
        m = np.full((h, w, 1), m)
    if not (m.min() >= 0.0 and m.max() <= 1.0):
        raise ValidationError(
            f"weight map values must lie in [0, 1], got range [{m.min():.6g}, {m.max():.6g}]"
        )
    if m.ndim not in (3, 4) or m.shape[-3:-1] != (h, w):
        raise ValidationError(f"weight map spatial dims {m.shape[-3:-1]} != image dims {(h, w)}")
    if m.shape[-1] not in (1, c):
        raise ValidationError(f"weight map has {m.shape[-1]} channels, image has {c}")
    if m.ndim == 4 and m.shape[0] != n:
        raise ValidationError(f"{m.shape[0]} weight maps for {n} samples")

    # One row per image or map, or one row that every sample shares.
    D = model.dim
    x_cond = x_cond.reshape(-1, D)
    m = np.broadcast_to(m, m.shape[:-1] + (c,)).reshape(-1, D)
    x = rng.normals(n * D).reshape(n, D)
    for t in range(s.T, 0, -1):
        sq_prev = s.sqrt_alpha_bar[t - 1]
        sig_prev = s.sqrt_one_minus_alpha_bar[t - 1]
        inner = J if t > 1 else 1
        x_t = x
        x_m = x_t  # overwritten below; J >= 1
        for j in range(1, inner + 1):
            if t > 1:
                eps_r = rng.normals(n * D).reshape(n, D)
                x_reproj = sq_prev * x_cond + sig_prev * eps_r
            else:
                x_reproj = np.broadcast_to(x_cond, (n, D))
            x_synth = _reverse_step_array(model, x_t, t, s, rng)
            x_m = fuzzy_fuse(x_synth, x_reproj, x_cond, m, t, s)
            if j < inner:
                eps3 = rng.normals(n * D).reshape(n, D)
                x_t = np.sqrt(s.alpha[t]) * x_m + np.sqrt(s.beta[t]) * eps3
        x = x_m
    return x
