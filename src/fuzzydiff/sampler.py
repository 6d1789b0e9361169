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

``ancestral_sample_array`` shares its law with ``fuzzy_sample`` at m = 0
(criterion 4's KS arm), not its draws: fuzzy draws a reprojection at each t > 1.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream, RowStreams, ValidationError
from .denoiser import EpsilonModel
from .schedule import NoiseSchedule

__all__ = [
    "ancestral_sample_array",
    "fuzzy_sample",
]


# ---------------------------------------------------------------------------
# reverse process


def _reverse_step_array(
    model: EpsilonModel,
    x: np.ndarray,
    t: int,
    s: NoiseSchedule,
    rng: RngStream | RowStreams,
    noise: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One ancestral step t -> t-1 on (n, D) rows; drawless at t=1 (beta_tilde[1] = 0).

    The result is written into ``out`` and returned, and the noise is drawn
    into ``noise``: two distinct C-contiguous (n, D) arrays, ``out`` apart
    from x, so the step allocates none. ``noise`` may be x, which the step
    has read for the last time when it draws; otherwise x is never written.
    """
    mean = model.predict_array(x, t, s, out=out)
    mean *= s.reverse_scale[t]
    np.subtract(x, mean, out=mean)
    mean /= s.sqrt_alpha[t]
    if t == 1:
        return mean
    eps = rng.normals(x.size, out=noise)
    eps *= s.sqrt_beta_tilde[t]
    mean += eps
    return mean


def ancestral_sample_array(
    model: EpsilonModel, s: NoiseSchedule, n: int, rng: RngStream | RowStreams
) -> np.ndarray:
    """n unconditional draws as (n, D) rows, iterating the reverse chain from noise."""
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    D = model.dim
    x = rng.normals(n * D).reshape(n, D)
    spare = np.empty_like(x)  # the chain's two buffers swap roles every step
    for t in range(s.T, 0, -1):
        x, spare = _reverse_step_array(model, x, t, s, rng, noise=x, out=spare), x
    return x


# ---------------------------------------------------------------------------
# fuzzy conditioning


def _fusion_weights(m) -> tuple:
    """What fusion needs of m that no step changes: 1 - m, the variance-restoring
    divisor sqrt(1 - 2m + 2m^2) and the masks of the m == 0 and m == 1 pixels."""
    return 1.0 - m, np.sqrt(1.0 - 2.0 * m + 2.0 * m * m), m == 0.0, m == 1.0


def _fuse(x_synth, x_reproj, base, m, weights, out, work) -> np.ndarray:
    """Blend the synthetic and reprojected branches at per-pixel strength m.

    Writes, per pixel,

        base + (m * x_reproj + (1 - m) * x_synth - base) / sqrt(1 - 2m + 2m^2)

    into ``out`` and returns it, with base = sqrt(alpha_bar[t-1]) * x_cond at
    step t, ``weights`` = ``_fusion_weights(m)`` and ``work`` scratch of
    ``out``'s shape. The divisor restores the variance both branches carry at
    level t-1, so the fused pixel stays on the diffusion marginal. m=0 gives
    x_synth and m=1 gives x_reproj, bit-exact.
    """
    one_minus_m, divisor, is_zero, is_one = weights
    np.multiply(m, x_reproj, out=out)
    np.multiply(one_minus_m, x_synth, out=work)
    out += work  # the blend
    out -= base
    out /= divisor
    out += base
    # The algebra is the identity at the endpoints, but float blending is not
    # bit-exact there; the boundary contract is, so select explicitly.
    np.copyto(out, x_synth, where=is_zero)
    np.copyto(out, x_reproj, where=is_one)
    return out


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

    # One row per image or map, or one row that every sample shares. Fusion's
    # operands are broadcast to (n, D) once: at a few rows, a numpy op that
    # broadcasts a row costs several times one on equal shapes.
    D = model.dim
    x_cond = x_cond.reshape(-1, D)
    m = np.broadcast_to(m, m.shape[:-1] + (c,)).reshape(-1, D)
    m, *weights = (np.ascontiguousarray(np.broadcast_to(a, (n, D)))
                   for a in (m, *_fusion_weights(m)))
    # The chain's state is its first draw; these five buffers serve every
    # step. The state outlives the inner steps, so they draw their noise into
    # ``work``, as the renoise does, and the reprojection goes into ``reproj``.
    x = rng.normals(n * D).reshape(n, D)
    base, synth, fused, work, reproj = (np.empty((n, D)) for _ in range(5))
    for t in range(s.T, 0, -1):
        np.multiply(s.sqrt_alpha_bar[t - 1], x_cond, out=base)
        inner = J if t > 1 else 1
        x_t = x
        for j in range(1, inner + 1):
            if t > 1:
                x_reproj = rng.normals(n * D, out=reproj)
                x_reproj *= s.sqrt_one_minus_alpha_bar[t - 1]
                x_reproj += base
            else:
                x_reproj = np.broadcast_to(x_cond, (n, D))
            _reverse_step_array(model, x_t, t, s, rng, noise=work, out=synth)
            _fuse(synth, x_reproj, base, m, weights, fused, work)
            if j < inner:
                # The renoised state is the next step's input; the step has
                # read it before the next fusion overwrites it.
                eps3 = rng.normals(n * D, out=work)
                eps3 *= s.sqrt_beta[t]
                fused *= s.sqrt_alpha[t]
                fused += eps3
                x_t = fused
        x, fused = fused, x
    return x
