"""Analytic noise-prediction oracles.

Both models below know their data distribution q(x_0) in closed form, so the
optimal noise predictor is available exactly:

    eps_hat(x_t, t) = (x_t - sqrt(abar_t) * E[x_0 | x_t]) / sqrt(1 - abar_t)

with E[x_0 | x_t] the posterior mean under the noised marginal
q(x_t) = integral q(x_t | x_0) q(x_0) dx_0. This replaces a trained network
end to end: every sampler property downstream can then be checked against
closed-form truth instead of eyeballed.
"""

from __future__ import annotations

import abc
import ctypes
import functools
import math
import struct

import numpy as np

from .core import _BLOCK_VALUES, RngStream, ValidationError, _Scratch, _f8, _frozen, _hash_parts
from .schedule import NoiseSchedule

__all__ = [
    "EpsilonModel",
    "GaussianFieldModel",
    "GmmPixelModel",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for (n, k) rows a, with every row rounded as a gemm row.

    BLAS takes a one-row product down its gemv path, whose last bits differ
    from the same row inside a larger product. A one-row a is therefore
    multiplied as two stacked copies, keeping row 0, so a row's result does
    not depend on how many rows share the call. ``out``, if given, receives
    the product and must not overlap a.
    """
    if a.shape[0] == 1:
        row = (np.concatenate((a, a)) @ b)[:1]
        if out is None:
            return row
        out[...] = row
        return out
    return np.matmul(a, b, out=out)


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS in the process.

    Each sets its library's thread count and returns the previous one. numpy
    need not be the only package that brings an OpenBLAS (scipy ships its
    own), and nothing portable tells which one numpy calls, so all of them
    are set. The libraries are found through the process's memory map, so
    there are none off Linux, under another BLAS, or in an OpenBLAS too old
    to export the function. numpy's own library is mapped before any model is
    built, so one look at the map suffices.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = ctypes.c_int
        setters.append(set_threads)
    return tuple(setters)


def _eigh(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh on one BLAS thread where the thread count can be set.

    OpenBLAS's threaded eigensolver gives other bytes than its one-thread
    path from about 256x256 on, so the eigenvectors (and every artifact of
    such a field) would depend on the host's core count. For small fields
    one thread is also the fast path: an 8x8 field builds in ~1 ms, against
    3-48 ms threaded (2-vCPU Xeon); a 32x32 one takes ~400 ms against ~325.
    """
    setters = _openblas_thread_setters()
    previous = []
    try:
        for set_threads in setters:
            previous.append(set_threads(1))
        return np.linalg.eigh(cov)
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


class EpsilonModel(abc.ABC):
    """Contract for noise predictors operating on flattened pixel vectors.

    ``shape`` is the (h, w, c) grid shape the model is defined over and
    D = h*w*c its flattened dimension. ``predict_array`` is the batched core
    that samplers drive, taking and returning arrays of shape (n, D). The
    contract holds only what chains and commands call; the oracles' own
    ``log_marginal_array`` and ``moments`` are the tests' closed-form references.
    """

    shape: tuple[int, int, int]

    @property
    def dim(self) -> int:
        h, w, c = self.shape
        return h * w * c

    @abc.abstractmethod
    def predict_array(
        self, x: np.ndarray, t: int, s: NoiseSchedule, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Noise estimates for a batch; x has shape (n, D), 1 <= t <= T.

        x is never written. The estimates go into ``out`` when given (a
        C-contiguous (n, D) float64 array that does not overlap x), otherwise
        into a new array; either way that array is returned.
        """

    @abc.abstractmethod
    def sample_x0(self, n: int, rng: RngStream) -> np.ndarray:
        """n exact draws from q(x_0), shape (n, D)."""

    @abc.abstractmethod
    def marginal_mean(self) -> float:
        """Scalar level of a typical pixel (mean of the D marginal means)."""

    @abc.abstractmethod
    def marginal_std(self) -> float:
        """Scalar spread of a typical pixel (root mean marginal variance)."""

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Content hash of the model definition, for cache staleness checks."""


class GaussianFieldModel(EpsilonModel):
    """q(x_0) = N(mu, Sigma) over the flattened D-dimensional pixel space.

    Sigma is eigendecomposed once at construction; all per-step conditioning
    happens in the eigenbasis, where the posterior gain along eigendirection i
    at noise level abar is

        g_i = sqrt(abar) * lam_i / (abar * lam_i + 1 - abar).
    """

    def __init__(self, shape: tuple[int, int, int], mean, cov: np.ndarray) -> None:
        h, w, c = (int(d) for d in shape)
        if min(h, w, c) < 1:
            raise ValidationError(f"bad model shape {(h, w, c)}")
        self.shape = (h, w, c)
        D = self.dim

        mu = np.asarray(mean, dtype=np.float64)
        if mu.ndim == 0:
            mu = np.full(D, float(mu))
        mu = _frozen(mu.reshape(-1))
        if mu.shape != (D,):
            raise ValidationError(f"mean has {mu.size} entries, model needs {D}")

        cov = _frozen(cov)
        if cov.shape != (D, D):
            raise ValidationError(f"covariance must be ({D}, {D}), got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValidationError("covariance must be symmetric")

        lam, vecs = _eigh(cov)
        if lam.min() < -1e-10:
            raise ValidationError(f"covariance not PSD (min eigenvalue {lam.min():.3e})")
        lam = np.clip(lam, 0.0, None)
        lam.setflags(write=False)
        vecs.setflags(write=False)
        ortho_err = np.abs(vecs.T @ vecs - np.eye(D)).max()
        if ortho_err > 1e-10:
            raise ValidationError(f"eigenvectors not orthonormal (err {ortho_err:.3e})")

        self.mu = mu
        self.cov_eigvals = lam
        self.cov_eigvecs = vecs
        self._cov = cov
        self._sqrt_lam = np.sqrt(lam)
        self._scratch = _Scratch(1)
        self._terms = (None, 0, None)  # (schedule, t, terms) of the last step predicted
        self._fingerprint = _hash_parts(
            b"gaussian_field/v1", struct.pack("<III", *self.shape), _f8(mu), _f8(cov)
        )

    @classmethod
    def exponential(
        cls, height: int, width: int, channels: int,
        mean: float, marginal_variance: float, correlation_length: float,
    ) -> "GaussianFieldModel":
        """Stationary field: cov(p, q) = var * exp(-dist(p, q) / length).

        Distance is Euclidean over pixel coordinates; distinct channels are
        independent (block-diagonal covariance).
        """
        if marginal_variance <= 0 or correlation_length <= 0:
            raise ValidationError("marginal_variance and correlation_length must be > 0")
        yy, xx = np.mgrid[0:height, 0:width]
        pts = np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.float64)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        block = marginal_variance * np.exp(-dist / correlation_length)
        D = height * width * channels
        cov = np.zeros((D, D))
        # Pixel vectors are channel-interleaved: flat index = (y*w + x)*c + ch.
        for ch in range(channels):
            idx = np.arange(height * width) * channels + ch
            cov[np.ix_(idx, idx)] = block
        return cls((height, width, channels), mean, cov)

    def _step_terms(self, t: int, s: NoiseSchedule) -> tuple:
        """sqrt(abar), sqrt(abar) * mu, the gain vector and sqrt(1 - abar) of
        step t, kept for the last step only: a fuzzy chain predicts J times
        per step, and the memory does not grow with T."""
        last, last_t, terms = self._terms
        if last is s and last_t == t:
            return terms
        abar = s.alpha_bar[t]
        root = np.sqrt(abar)
        lam = self.cov_eigvals
        terms = (root, root * self.mu, lam / (abar * lam + (1.0 - abar)), np.sqrt(1.0 - abar))
        self._terms = (s, t, terms)
        return terms

    def predict_array(
        self, x: np.ndarray, t: int, s: NoiseSchedule, out: np.ndarray | None = None
    ) -> np.ndarray:
        root, root_mu, gain, scale = self._step_terms(s.check_step(t), s)
        if out is None:
            out = np.empty(x.shape)
        (b,) = self._scratch.rows(x.shape)  # out is the other work array
        np.subtract(x, root_mu, out=out)
        _rows_matmul(out, self.cov_eigvecs, out=b)
        b *= gain
        _rows_matmul(b, self.cov_eigvecs.T, out=out)
        # root * (mu + root * out), in the operation order of the spelled-out formula
        out *= root
        out += self.mu
        out *= root
        np.subtract(x, out, out=out)
        out /= scale
        return out

    def log_marginal_array(self, x: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
        """log q(x_t) per row at step t (t=0 gives the data density)."""
        t = s.check_step(t, lowest=0)
        abar = s.alpha_bar[t]
        y = _rows_matmul(x - np.sqrt(abar) * self.mu, self.cov_eigvecs)
        d = abar * self.cov_eigvals + (1.0 - abar)
        if d.min() <= 0.0:
            raise ValidationError("marginal covariance is singular at this step")
        quad = np.sum(y * y / d, axis=1)
        return -0.5 * (self.dim * _LOG_2PI + np.sum(np.log(d)) + quad)

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mu.copy(), self._cov.copy()

    def marginal_mean(self) -> float:
        return float(np.mean(self.mu))

    def marginal_std(self) -> float:
        return float(np.sqrt(np.mean(np.diag(self._cov))))

    def sample_x0(self, n: int, rng: RngStream) -> np.ndarray:
        # mu + (z * sqrt(lam)) V^T, with the scaling in the draw and mu added
        # to the product in place: two (n, D) arrays live at once.
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        z *= self._sqrt_lam
        x = _rows_matmul(z, self.cov_eigvecs.T)
        x += self.mu
        return x

    def fingerprint(self) -> str:
        return self._fingerprint


class GmmPixelModel(EpsilonModel):
    """Every pixel i.i.d. from a K-component 1-d Gaussian mixture.

    Component k alone gives the noise estimate eps_k = slope_k*x - icpt_k,
    with slope_k = sqrt(1 - abar) / var_k, icpt_k = slope_k*sqrt(abar)*m_k
    and var_k = abar*v_k + 1 - abar; written so, it needs no subtraction of
    x - sqrt(abar)*E[x_0 | x], which cancels near t = 1. The kernel starts
    from eps_0 and merges components 1..K-1 left to right,

        eps += (eps_k - eps) / (1 + exp(ll_0 - ll_k + lse)),

    where ll_k = log(w_k N_k(x)), ll_0 - ll_k is one quadratic in x, and lse
    is the running log of the earlier components' summed weights over
    w_0 N_0 (zero, and not kept, for K = 2). An exp that overflows weighs its
    component exactly 0. It runs on row blocks of about ``_BLOCK_VALUES``
    values, in work arrays the model holds in a ``core._Scratch``. Its results
    agree with the trailing-axis log-sum-exp formula within
    1e-12 * max(1, |eps|), saturated rows included (tests/test_denoiser.py
    pins both).
    """

    def __init__(self, shape: tuple[int, int, int], weights, means, variances) -> None:
        h, w, c = (int(d) for d in shape)
        if min(h, w, c) < 1:
            raise ValidationError(f"bad model shape {(h, w, c)}")
        self.shape = (h, w, c)

        wts = _frozen(weights).reshape(-1)
        mus = _frozen(means).reshape(-1)
        sig2 = _frozen(variances).reshape(-1)
        if not (wts.size == mus.size == sig2.size) or wts.size < 1:
            raise ValidationError("weights, means, variances must have equal nonzero length")
        if np.any(wts <= 0.0):
            raise ValidationError("component weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1, got {wts.sum()!r}")
        if np.any(sig2 <= 0.0):
            raise ValidationError("component variances must be positive")

        self.weights = wts
        self.means = mus
        self.variances = sig2
        self._logw = np.log(wts)
        self._cumw = np.cumsum(wts)
        self._scratch = _Scratch(2 + (self.K > 2))
        self._fingerprint = _hash_parts(
            b"gmm_pixel/v1", struct.pack("<III", *self.shape), _f8(wts), _f8(mus), _f8(sig2)
        )

    @property
    def K(self) -> int:
        return self.weights.size

    def _component_loglik(self, x: np.ndarray, abar) -> list[np.ndarray]:
        """Per component k, loglik_k = log w_k - 0.5*(log(2 pi var_k) +
        (x - root*m_k)**2 / var_k), a fresh array shaped like x, with
        root = sqrt(abar) and var_k = abar*v_k + 1 - abar."""
        root = np.sqrt(abar)
        var_k = abar * self.variances + (1.0 - abar)  # (K,)
        log_norm = np.log(2.0 * math.pi * var_k)
        loglik = []
        for k in range(self.K):
            ll = x - root * self.means[k]
            ll *= ll
            ll /= var_k[k]
            ll += log_norm[k]
            ll *= 0.5
            loglik.append(np.subtract(self._logw[k], ll, out=ll))
        return loglik

    def _step_terms(self, abar) -> tuple[np.ndarray, ...]:
        """(K,) vectors of one step: eps_k = slope_k*x - icpt_k, and the
        Horner coefficients of ll_0 - ll_k = (a_k*x + b_k)*x + c_k."""
        root = np.sqrt(abar)
        var_k = abar * self.variances + (1.0 - abar)
        slope = np.sqrt(1.0 - abar) / var_k
        icpt = slope * root * self.means
        alpha = -0.5 / var_k
        beta = root * self.means / var_k
        gamma = self._logw - 0.5 * (np.log(var_k) + root * self.means * beta)
        return slope, icpt, alpha[0] - alpha, beta[0] - beta, gamma[0] - gamma

    def _predict_rows(self, x: np.ndarray, terms, out: np.ndarray, work) -> None:
        slope, icpt, a, b, c = terms
        q, e, lse = (*work, None)[:3]  # lse: the running log-sum-exp, K >= 3 only
        if lse is not None:
            lse.fill(0.0)
        np.multiply(x, slope[0], out=out)
        out -= icpt[0]
        for k in range(1, self.K):
            np.multiply(x, a[k], out=q)
            q += b[k]
            q *= x
            q += c[k]  # ll_0 - ll_k
            if lse is None:
                d, eps_k = q, e
            else:
                d, eps_k = np.add(q, lse, out=e), q
                if k < self.K - 1:
                    np.negative(q, out=q)
                    np.logaddexp(lse, q, out=lse)
            # exp overflows only where component k's weight is below about
            # 1e-308: 1 / (1 + inf) then weighs it exactly 0.
            with np.errstate(over="ignore"):
                np.exp(d, out=d)
            d += 1.0
            np.multiply(x, slope[k], out=eps_k)
            eps_k -= icpt[k]
            eps_k -= out
            eps_k /= d
            out += eps_k

    def predict_array(
        self, x: np.ndarray, t: int, s: NoiseSchedule, out: np.ndarray | None = None
    ) -> np.ndarray:
        terms = self._step_terms(s.alpha_bar[s.check_step(t)])
        if out is None:
            out = np.empty(x.shape)
        rows = max(1, _BLOCK_VALUES // self.dim)
        for i in range(0, len(x), rows):
            block = out[i : i + rows]
            work = self._scratch.rows(block.shape)  # two rows, or three for K > 2
            self._predict_rows(x[i : i + rows], terms, block, work)
        return out

    def log_marginal_array(self, x: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
        """log q(x_t) by a log-sum-exp over the components, summed left to
        right after a running peak, in the order of a trailing-axis reduction."""
        t = s.check_step(t, lowest=0)
        loglik = self._component_loglik(x, s.alpha_bar[t])
        peak = loglik[0].copy()
        for ll in loglik[1:]:
            np.maximum(peak, ll, out=peak)
        total = np.zeros(x.shape)
        for ll in loglik:
            ll -= peak
            total += np.exp(ll, out=ll)
        return np.sum(peak + np.log(total, out=total), axis=-1)

    def _pixel_moments(self) -> tuple[float, float]:
        """(mean, variance) of one pixel."""
        m1 = float(np.sum(self.weights * self.means))
        m2 = float(np.sum(self.weights * (self.variances + self.means**2)))
        return m1, m2 - m1 * m1

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        m1, var = self._pixel_moments()
        D = self.dim
        return np.full(D, m1), np.eye(D) * var

    # The scalars are means over D equal values, as for a field, not m1 and
    # sqrt(var) themselves: the mean's rounding differs from its input for
    # many D, and these scalars reach the artifacts (sigma floors, degradation
    # thresholds). Neither builds the (D, D) covariance.
    def marginal_mean(self) -> float:
        return float(np.mean(np.full(self.dim, self._pixel_moments()[0])))

    def marginal_std(self) -> float:
        return float(np.sqrt(np.mean(np.full(self.dim, self._pixel_moments()[1]))))

    def sample_x0(self, n: int, rng: RngStream) -> np.ndarray:
        D = self.dim
        # Draw order is pinned: component picks first, then the normals.
        comp = np.searchsorted(self._cumw, rng.uniforms(n * D), side="left")
        np.minimum(comp, self.K - 1, out=comp)
        z = rng.normals(n * D)
        # means[comp] + sqrt(variances[comp]) * z, built in one array, with
        # the means gathered into the spent draw: three (n, D) arrays at most.
        x = np.take(self.variances, comp)
        np.sqrt(x, out=x)
        x *= z
        np.take(self.means, comp, out=z, mode="clip")  # mode="raise" buffers out
        x += z
        return x.reshape(n, D)

    def fingerprint(self) -> str:
        return self._fingerprint

