"""Reference statistics the tests compare sampled rows and schedules with.

None of these is needed to run the package: the KS statistic and its
critical value, the gap between sample moments and an oracle's moments, the
DDPM posterior-mean coefficients, and one fusion step on arrays of any shape.
"""

from __future__ import annotations

import math

import numpy as np

from fuzzydiff import EpsilonModel, NoiseSchedule, ValidationError
from fuzzydiff.sampler import _fuse, _fusion_weights


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ValidationError("ks_two_sample needs non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    if n < 1 or m < 1:
        raise ValidationError("sample sizes must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def moment_error(rows: np.ndarray, model: EpsilonModel) -> tuple[float, float]:
    """Gap between sample moments and the model's analytic ones.

    Returns (max per-pixel |mean difference|, relative Frobenius error of the
    sample covariance) of (n, D) sample rows; needs at least two samples.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValidationError(f"sample array must be (n, D), got {rows.shape}")
    if rows.shape[0] < 2:
        raise ValidationError("moment_error needs at least 2 samples")
    mean, cov = model.moments()
    if rows.shape[1] != mean.size:
        raise ValidationError(f"sample dim {rows.shape[1]} != model dim {mean.size}")
    mean_err = float(np.abs(rows.mean(axis=0) - mean).max())
    sample_cov = np.cov(rows, rowvar=False)
    cov_err = float(np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov))
    return mean_err, cov_err


def posterior_mean_coeffs(s: NoiseSchedule, t: int) -> tuple[float, float]:
    """Coefficients (c0, ct) of the posterior mean  mu = c0*x0 + ct*xt.

    c0 = sqrt(alpha_bar[t-1]) * beta_t / (1 - alpha_bar[t])
    ct = sqrt(alpha[t]) * (1 - alpha_bar[t-1]) / (1 - alpha_bar[t])

    At t=1 this collapses onto x0: (c0, ct) = (1, 0).
    """
    t = s.check_step(t)
    denom = 1.0 - s.alpha_bar[t]
    c0 = s.sqrt_alpha_bar[t - 1] * s.beta[t] / denom
    ct = s.sqrt_alpha[t] * (1.0 - s.alpha_bar[t - 1]) / denom
    return float(c0), float(ct)


def fuse(x_synth, x_reproj, x_cond, m, t: int, s: NoiseSchedule) -> np.ndarray:
    """The fusion step of ``fuzzy_sample`` at step t, on operands that broadcast.

    base = sqrt(alpha_bar[t-1]) * x_cond; ``sampler._fuse`` holds the formula.
    """
    base = s.sqrt_alpha_bar[t - 1] * x_cond
    shape = np.broadcast_shapes(*(np.shape(a) for a in (x_synth, x_reproj, base, m)))
    return _fuse(x_synth, x_reproj, base, m, _fusion_weights(m), np.empty(shape), np.empty(shape))
