import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fuzzydiff
from fuzzydiff import (
    GaussianFieldModel,
    GmmPixelModel,
    RngStream,
    RowStreams,
    ValidationError,
    linear_schedule,
)
from fuzzydiff.denoiser import _openblas_thread_setters, _rows_matmul

from conftest import exp_field, two_mode


def scalar_schedule(abar: float):
    """One-step schedule whose alpha_bar[1] equals abar exactly."""
    return linear_schedule(1, 1.0 - abar, 1.0 - abar)


def std_normal_model() -> GaussianFieldModel:
    return GaussianFieldModel((1, 1, 1), 0.0, np.array([[1.0]]))


def one(v: float) -> np.ndarray:
    """A single one-pixel row."""
    return np.full((1, 1), v)


class TestGaussianField:
    def test_standard_normal_data_shrinks_by_root_half(self):
        s = scalar_schedule(0.5)
        model = std_normal_model()
        for v in (-1.3, 0.0, 0.4, 2.0):
            eps = model.predict_array(one(v), 1, s)
            assert abs(eps[0, 0] - np.sqrt(0.5) * v) < 1e-12

    def test_deterministic_data_gives_pure_noise_residual(self):
        s = scalar_schedule(0.7)
        model = GaussianFieldModel((1, 1, 1), 0.25, np.array([[0.0]]))
        v = 1.1
        eps = model.predict_array(one(v), 1, s)
        expected = (v - np.sqrt(0.7) * 0.25) / np.sqrt(0.3)
        assert abs(eps[0, 0] - expected) < 1e-12

    def test_zero_residual_at_scaled_mean(self, field_model, sched200):
        for t in (1, 57, 200):
            x = (sched200.sqrt_alpha_bar[t] * field_model.mu)[None, :]
            eps = field_model.predict_array(x, t, sched200)
            assert np.abs(eps).max() < 1e-10

    def test_shape_mismatch_rejected(self, field_model, sched200):
        # Rows of the wrong width must fail loudly, never broadcast silently.
        with pytest.raises(ValueError):
            field_model.predict_array(np.zeros((1, 16)), 10, sched200)

    def test_step_range(self, field_model, sched200):
        x = field_model.mu[None, :]
        with pytest.raises(IndexError):
            field_model.predict_array(x, 0, sched200)
        with pytest.raises(IndexError):
            field_model.predict_array(x, 201, sched200)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValidationError):
            GaussianFieldModel((1, 2, 1), 0.0, np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValidationError):
            GaussianFieldModel((1, 1, 1), 0.0, np.array([[-1.0]]))
        with pytest.raises(ValidationError):
            GaussianFieldModel((1, 2, 1), np.zeros(3), np.eye(2))

    def test_moments_match_construction(self, field_model):
        mean, cov = field_model.moments()
        assert np.allclose(mean, 0.5)
        assert abs(cov[0, 0] - 0.04) < 1e-15
        # Exponential decay with length 2: one pixel over is exp(-1/2).
        assert abs(cov[0, 1] - 0.04 * np.exp(-0.5)) < 1e-15
        assert field_model.marginal_std() == pytest.approx(0.2)

    def test_scalar_marginals_match_the_moments(self, field_model):
        two = exp_field(3, 5, 2, mean=0.3, marginal_variance=0.07)
        for model in (field_model, two):
            mean, cov = model.moments()
            assert model.marginal_mean() == float(np.mean(mean))
            assert model.marginal_std() == float(np.sqrt(np.mean(np.diag(cov))))

    def test_sample_moments(self, field_model):
        rows = field_model.sample_x0(20_000, RngStream(51, 0))
        mean, cov = field_model.moments()
        assert np.abs(rows.mean(axis=0) - mean).max() < 4 * 0.2 / np.sqrt(20_000) * 2
        sample_cov = np.cov(rows, rowvar=False)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.1

    def test_sampling_deterministic(self, field_model):
        a = field_model.sample_x0(5, RngStream(3, 9))
        b = field_model.sample_x0(5, RngStream(3, 9))
        assert np.array_equal(a, b)

    def test_gemm_rows_do_not_depend_on_row_count(self):
        # The field's byte-identical rows across counts rest on this property
        # of the running numpy/BLAS build; a build without it fails here.
        rng = RngStream(17, 0)
        b = rng.normals(64 * 64).reshape(64, 64)
        a = rng.normals(400 * 64).reshape(400, 64)
        full = a @ b
        for n in (2, 3, 16, 39, 64, 400):
            assert (a[:n] @ b).tobytes() == full[:n].tobytes()
        assert _rows_matmul(a[:1], b).tobytes() == full[:1].tobytes()
        # A transposed operand, as in predict_array, may switch BLAS kernels
        # at a size threshold, so the one-row path is checked on a small batch.
        assert _rows_matmul(a[:1], b.T).tobytes() == (a[:3] @ b.T)[:1].tobytes()

    def test_rows_do_not_depend_on_batch(self, field_model, sched200):
        x = field_model.sample_x0(9, RngStream(18, 0))
        for t in (1, 57, 200):
            full = field_model.predict_array(x, t, sched200)
            for i in (0, 4):
                one = field_model.predict_array(x[i : i + 1], t, sched200)
                assert one.tobytes() == full[i : i + 1].tobytes()
        streams = [RngStream(19, 0).child(i) for i in range(3)]
        rows = field_model.sample_x0(3, RowStreams(streams))
        for i in range(3):
            one = field_model.sample_x0(1, RngStream(19, 0).child(i))
            assert one.tobytes() == rows[i : i + 1].tobytes()


class TestGmmPixel:
    def test_single_component_equals_gaussian(self):
        s = scalar_schedule(0.6)
        gmm = GmmPixelModel((2, 3, 1), [1.0], [0.3], [0.02])
        gauss = GaussianFieldModel((2, 3, 1), 0.3, 0.02 * np.eye(6))
        x = np.linspace(-0.5, 1.2, 6)[None, :]
        a = gmm.predict_array(x, 1, s)
        b = gauss.predict_array(x, 1, s)
        assert np.abs(a - b).max() < 1e-10

    def test_symmetric_mixture_zero_at_origin(self):
        s = scalar_schedule(0.5)
        model = GmmPixelModel((1, 1, 1), [0.5, 0.5], [-1.0, 1.0], [0.01, 0.01])
        eps = model.predict_array(one(0.0), 1, s)
        assert abs(eps[0, 0]) < 1e-12

    def test_far_component_negligible(self):
        s = scalar_schedule(0.99)
        mix = GmmPixelModel((1, 1, 1), [0.5, 0.5], [-1.0, 1.0], [0.01, 0.01])
        solo = GmmPixelModel((1, 1, 1), [1.0], [1.0], [0.01])
        x = one(0.995 * np.sqrt(0.99))
        a = mix.predict_array(x, 1, s)[0, 0]
        b = solo.predict_array(x, 1, s)[0, 0]
        assert abs(a - b) < 1e-3

    def test_two_mode_moments(self, gmm_model):
        mean, cov = gmm_model.moments()
        assert np.allclose(mean, 0.5)
        assert abs(cov[0, 0] - 0.0675) < 1e-15
        assert np.count_nonzero(cov - np.diag(np.diag(cov))) == 0
        assert gmm_model.marginal_std() == pytest.approx(np.sqrt(0.0675))

    @pytest.mark.parametrize(
        "mixture",
        [
            ([0.5, 0.5], [0.25, 0.75], [0.005, 0.005]),
            ([0.6, 0.4], [0.3, 0.7], [0.01, 0.01]),
            ([0.2, 0.5, 0.3], [-0.4, 0.1, 0.9], [0.003, 0.05, 0.01]),
        ],
    )
    def test_scalar_marginals_keep_the_moments_bytes(self, mixture):
        # The scalars are computed without the (D, D) covariance but keep the
        # bytes they had when read from moments(); the plain per-pixel mean and
        # std differ from those in their last bit for many D.
        for D in [*range(1, 300), 1000, 1024, 2049, 4097]:
            model = GmmPixelModel((1, D, 1), *mixture)
            mean, cov = model.moments()
            assert model.marginal_mean() == float(np.mean(mean))
            assert model.marginal_std() == float(np.sqrt(np.mean(np.diag(cov))))

    def test_sample_component_balance(self, gmm_model):
        rows = gmm_model.sample_x0(2000, RngStream(8, 1)).reshape(-1)
        hi = np.mean(rows > 0.5)
        assert abs(hi - 0.5) < 0.01
        assert abs(rows.mean() - 0.5) < 0.005
        assert abs(rows.var() - 0.0675) < 0.002

    def test_rows_do_not_depend_on_batch(self, gmm_model, sched400):
        # 1000 rows run in several of predict_array's row blocks, 1 and 7 in one.
        x = gmm_model.sample_x0(1000, RngStream(18, 1))
        for t in (1, 120, 400):
            full = gmm_model.predict_array(x, t, sched400)
            for n in (1, 7, 999):
                for lo in (0, 1000 - n):
                    part = gmm_model.predict_array(x[lo : lo + n], t, sched400)
                    assert part.tobytes() == full[lo : lo + n].tobytes()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            GmmPixelModel((1, 1, 1), [0.6, 0.5], [0.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValidationError):
            GmmPixelModel((1, 1, 1), [1.0, 0.0], [0.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValidationError):
            GmmPixelModel((1, 1, 1), [1.0], [0.0], [0.0])
        with pytest.raises(ValidationError):
            GmmPixelModel((1, 1, 1), [0.5, 0.5], [0.0], [0.1, 0.1])


def _trailing_axis_loglik(model, x, abar):
    """The mixture kernel written as reductions over a trailing K axis."""
    root = np.sqrt(abar)
    var_k = abar * model.variances + (1.0 - abar)
    diff = x[..., None] - root * model.means
    loglik = np.log(model.weights) - 0.5 * (np.log(2.0 * np.pi * var_k) + diff * diff / var_k)
    return root, var_k, diff, loglik


def trailing_axis_predict(model, x, t, s):
    abar = s.alpha_bar[t]
    root, var_k, diff, loglik = _trailing_axis_loglik(model, x, abar)
    resp = np.exp(loglik - loglik.max(axis=-1, keepdims=True))
    resp /= resp.sum(axis=-1, keepdims=True)
    post = np.sum(resp * (model.means + (root * model.variances / var_k) * diff), axis=-1)
    return (x - root * post) / np.sqrt(1.0 - abar)


def trailing_axis_log_marginal(model, x, t, s):
    *_, loglik = _trailing_axis_loglik(model, x, s.alpha_bar[t])
    peak = loglik.max(axis=-1)
    return np.sum(peak + np.log(np.sum(np.exp(loglik - peak[..., None]), axis=-1)), axis=-1)


def spelled_out_gmm_predict(model, x, t, s):
    """The mixture's noise estimate out of place: eps_0, then each further
    component merged in with weight 1 / (1 + exp(ll_0 - ll_k + lse))."""
    abar = s.alpha_bar[t]
    root = np.sqrt(abar)
    var_k = abar * model.variances + (1.0 - abar)
    slope = np.sqrt(1.0 - abar) / var_k
    icpt = slope * root * model.means
    alpha = -0.5 / var_k
    beta = root * model.means / var_k
    gamma = np.log(model.weights) - 0.5 * (np.log(var_k) + root * model.means * beta)
    eps = slope[0] * x - icpt[0]
    lse = 0.0
    for k in range(1, model.K):
        q = ((alpha[0] - alpha[k]) * x + (beta[0] - beta[k])) * x + (gamma[0] - gamma[k])
        with np.errstate(over="ignore"):
            eps = eps + ((slope[k] * x - icpt[k]) - eps) / (1.0 + np.exp(q + lse))
        lse = np.logaddexp(lse, -q)
    return eps


class TestPinnedGmmKernel:
    """predict_array gives the bytes of the spelled-out merge formula and
    agrees with the trailing-axis formula; log_marginal_array gives the bytes
    of the trailing-axis log-sum-exp."""

    MIXTURES = {
        "K1": ([1.0], [0.3], [0.02]),
        "K2": ([0.5, 0.5], [0.25, 0.75], [0.005, 0.005]),
        "K3": ([0.2, 0.5, 0.3], [-0.4, 0.1, 0.9], [0.003, 0.05, 0.01]),
        "K4": ([0.1, 0.4, 0.3, 0.2], [-0.3, 0.2, 0.5, 1.1], [0.004, 0.02, 0.006, 0.03]),
    }

    @staticmethod
    def rows(model):
        rows, D = 40, model.dim
        noise = RngStream(23, 1).normals(rows * D).reshape(rows, D)
        x = model.sample_x0(rows, RngStream(23, 0)) + 0.3 * noise
        # Saturated rows: far outside every component, where likelihoods underflow.
        x[:5] = np.array([50.0, -50.0, 1e3, -1e3, 0.0])[:, None]
        return x

    @pytest.mark.parametrize("shape", [(8, 8, 1), (2, 2, 2)])
    @pytest.mark.parametrize("mix", sorted(MIXTURES))
    def test_bytes_at_every_step(self, mix, shape, sched400):
        model = GmmPixelModel(shape, *self.MIXTURES[mix])
        x = self.rows(model)
        for t in range(0, sched400.T + 1):
            if t >= 1:
                got = model.predict_array(x, t, sched400)
                assert got.tobytes() == spelled_out_gmm_predict(model, x, t, sched400).tobytes()
            got = model.log_marginal_array(x, t, sched400)
            assert got.tobytes() == trailing_axis_log_marginal(model, x, t, sched400).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8, 1), (2, 2, 2)])
    @pytest.mark.parametrize("mix", sorted(MIXTURES))
    def test_agrees_with_the_trailing_axis_formula(self, mix, shape, sched400):
        # 1e-12 is the worst gap measured over these rows (5.8e-14, K3) with headroom.
        model = GmmPixelModel(shape, *self.MIXTURES[mix])
        x = self.rows(model)
        for t in range(1, sched400.T + 1):
            ref = trailing_axis_predict(model, x, t, sched400)
            gap = np.abs(model.predict_array(x, t, sched400) - ref)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(ref))), t

    @pytest.mark.parametrize("mix", ["K2", "K3"])
    def test_rows_across_block_edges(self, mix, sched400):
        # With D = 64 a row block is 256 rows, so these counts end just inside,
        # on and just past block edges; pairs of rows run in one block.
        model = GmmPixelModel((8, 8, 1), *self.MIXTURES[mix])
        pool = model.sample_x0(1000, RngStream(29, 0))
        for t in (1, 140, 400):
            pairs = [model.predict_array(pool[i : i + 2], t, sched400) for i in range(0, 1000, 2)]
            ref = np.concatenate(pairs)
            for n in (1, 255, 256, 257, 1000):
                got = model.predict_array(pool[:n], t, sched400)
                assert got.tobytes() == ref[:n].tobytes()


def spelled_out_field_predict(model, x, t, s):
    """The field's noise estimate out of place, one-row products as two stacked gemm rows."""

    def rows_matmul(a, b):
        return (np.concatenate((a, a)) @ b)[:1] if len(a) == 1 else a @ b

    abar = s.alpha_bar[t]
    root = np.sqrt(abar)
    y = rows_matmul(x - root * model.mu, model.cov_eigvecs)
    gain = model.cov_eigvals / (abar * model.cov_eigvals + (1.0 - abar))
    post = model.mu + root * rows_matmul(y * gain, model.cov_eigvecs.T)
    return (x - root * post) / np.sqrt(1.0 - abar)


class TestPredictInto:
    """predict_array with and without out= gives the bytes of the out-of-place
    formulas and never writes its input."""

    # Row counts alternate, so scratch kept from a previous count would show.
    ROWS = (1, 2, 18, 19, 400, 1000, 19, 1, 400)

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_bytes_of_the_spelled_out_formula(self, kind, field_model, gmm_model, sched200):
        model, formula = {
            "field": (field_model, spelled_out_field_predict),
            "gmm": (gmm_model, spelled_out_gmm_predict),
        }[kind]
        pool = 0.5 + 0.3 * RngStream(41, 0).normals(1000 * model.dim).reshape(1000, -1)
        for n in self.ROWS:
            x = pool[-n:].copy()
            kept = x.copy()
            for t in (1, 2, sched200.T):
                expect = formula(model, x, t, sched200).tobytes()
                assert model.predict_array(x, t, sched200).tobytes() == expect
                out = np.full_like(x, np.nan)
                assert model.predict_array(x, t, sched200, out=out) is out
                assert out.tobytes() == expect
            assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_bytes_do_not_depend_on_the_previous_row_count(self, kind, sched200):
        # A model keeps its work arrays at the widest row count it has seen;
        # 400 GMM rows end in a partial 144-row block (blocks of 256 rows).
        build = {"field": exp_field, "gmm": two_mode}[kind]
        model = build()
        pool = 0.5 + 0.3 * RngStream(42, 0).normals(400 * model.dim).reshape(400, -1)
        for n in (400, 20, 400):
            for t in (1, 2, sched200.T):
                fresh = build().predict_array(pool[:n], t, sched200)
                assert model.predict_array(pool[:n], t, sched200).tobytes() == fresh.tobytes()


class TestEigenThreads:
    def test_eigenvectors_do_not_depend_on_the_blas_thread_count(self):
        # Threaded OpenBLAS eigensolvers give other bytes from 16x16 fields on;
        # on a one-core host both runs are one-threaded and agree anyway. The
        # scipy run maps scipy's own OpenBLAS beside numpy's before the field
        # is built, so the thread limit must reach the library numpy calls.
        if not _openblas_thread_setters():
            pytest.skip("numpy's BLAS offers no thread control here")
        build = (
            "import hashlib; from fuzzydiff import GaussianFieldModel; "
            "m = GaussianFieldModel.exponential(16, 16, 1, 0.5, 0.04, 2.0); "
            "print(hashlib.sha256(m.cov_eigvecs.tobytes() + m.cov_eigvals.tobytes()).hexdigest())"
        )
        runs = [(None, build), ("1", build)]
        try:
            import scipy.linalg  # noqa: F401
        except ImportError:
            pass
        else:
            runs.append((None, "import scipy.linalg; " + build))
        src = str(Path(fuzzydiff.__file__).resolve().parents[1])
        digests = set()
        for threads, code in runs:
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.add(proc.stdout)
        model = GaussianFieldModel.exponential(16, 16, 1, 0.5, 0.04, 2.0)
        here = hashlib.sha256(model.cov_eigvecs.tobytes() + model.cov_eigvals.tobytes())
        assert digests == {here.hexdigest() + "\n"}


class TestLogMarginal:
    def test_standard_normal_invariant_across_steps(self, sched50):
        model = std_normal_model()
        for t in (0, 1, 25, 50):
            val = model.log_marginal_array(one(0.0), t, sched50)[0]
            assert abs(val - (-0.5 * np.log(2 * np.pi))) < 1e-12

    def test_gmm_symmetry(self, sched50):
        model = GmmPixelModel((2, 2, 1), [0.5, 0.5], [-0.4, 0.4], [0.02, 0.02])
        x = np.array([[0.3, -0.1, 0.7, 0.05]])
        for t in (0, 10, 40):
            pos, neg = model.log_marginal_array(np.vstack([x, -x]), t, sched50)
            assert abs(pos - neg) < 1e-12

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_density_integrates_to_one(self, kind, sched50):
        if kind == "field":
            model = GaussianFieldModel((1, 1, 1), 0.3, np.array([[0.05]]))
        else:
            model = GmmPixelModel((1, 1, 1), [0.5, 0.5], [0.25, 0.75], [0.005, 0.005])
        xs = np.linspace(-8.0, 9.0, 40_001)
        for t in (0, 25, 50):
            logp = model.log_marginal_array(xs[:, None], t, sched50)
            mass = np.trapezoid(np.exp(logp), xs)
            assert abs(mass - 1.0) < 1e-6

    def test_degenerate_covariance_rejected(self):
        model = GaussianFieldModel((1, 1, 1), 0.0, np.array([[0.0]]))
        with pytest.raises(ValidationError):
            model.log_marginal_array(one(0.1), 0, linear_schedule(5, 0.1, 0.3))


def _fd_score(model, row: np.ndarray, t, s, i: int, h: float = 3e-5) -> float:
    hi = row.copy()
    lo = row.copy()
    hi[i] += h
    lo[i] -= h
    up = model.log_marginal_array(hi[None, :], t, s)[0]
    down = model.log_marginal_array(lo[None, :], t, s)[0]
    return (up - down) / (2 * h)


class TestScoreIdentity:
    """eps_hat must equal -sqrt(1-abar)*grad log p, checked by finite differences."""

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_scalar_models(self, kind, sched50):
        if kind == "field":
            model = std_normal_model()
            points = [-1.7, 0.3, 1.1]
        else:
            model = GmmPixelModel((1, 1, 1), [0.5, 0.5], [0.25, 0.75], [0.005, 0.005])
            points = [0.1, 0.5, 0.8]
        for t in (5, 25, 45):
            scale = -sched50.sqrt_one_minus_alpha_bar[t]
            for v in points:
                row = np.array([v])
                eps = model.predict_array(row[None, :], t, sched50)[0, 0]
                want = scale * _fd_score(model, row, t, sched50, 0)
                assert abs(eps - want) / max(abs(want), 1e-8) < 1e-5

    def test_field_random_coordinates(self, field_model, sched200):
        rng = RngStream(4242, 0)
        row = field_model.sample_x0(1, rng)[0]
        coords = [3, 17, 31, 44, 60]
        for t in (20, 100, 180):
            eps = field_model.predict_array(row[None, :], t, sched200)[0]
            scale = -sched200.sqrt_one_minus_alpha_bar[t]
            for i in coords:
                want = scale * _fd_score(field_model, row, t, sched200, i)
                assert abs(eps[i] - want) / max(abs(want), 1e-8) < 1e-5


class TestMseOptimality:
    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_conditional_mean_beats_scaled_predictors(
        self, kind, field_model, gmm_model, sched50
    ):
        model = field_model if kind == "field" else gmm_model
        rng = RngStream(606, 0)
        n, D = 4000, model.dim
        t = 25
        x0 = model.sample_x0(n, rng)
        eps = rng.normals(n * D).reshape(n, D)
        xt = sched50.sqrt_alpha_bar[t] * x0 + sched50.sqrt_one_minus_alpha_bar[t] * eps
        pred = model.predict_array(xt, t, sched50)
        mse = np.mean((eps - pred) ** 2)
        assert mse < np.mean((eps - 1.1 * pred) ** 2)
        assert mse < np.mean((eps - 0.9 * pred) ** 2)


class TestFingerprints:
    def test_stable_and_distinct(self, field_model, gmm_model):
        assert field_model.fingerprint() == exp_field().fingerprint()
        assert gmm_model.fingerprint() == two_mode().fingerprint()
        assert field_model.fingerprint() != gmm_model.fingerprint()
        other = exp_field(marginal_variance=0.05)
        assert other.fingerprint() != field_model.fingerprint()

    def test_caller_arrays_are_copied_and_model_arrays_read_only(self):
        # The fingerprint is taken once at construction, so a later write into
        # the caller's arrays must not reach the model, and the model's own
        # arrays refuse writes.
        mean, cov = np.full(4, 0.5), 0.04 * np.eye(4)
        field = GaussianFieldModel((2, 2, 1), mean, cov)
        weights, means, variances = np.array([0.3, 0.7]), np.array([0.2, 0.8]), np.array([0.01, 0.02])
        gmm = GmmPixelModel((2, 2, 1), weights, means, variances)
        before = (field.fingerprint(), field.marginal_std(), gmm.fingerprint(), gmm.marginal_std())
        mean += 1.0
        cov *= 4.0
        means += 1.0
        variances *= 4.0
        assert (field.fingerprint(), field.marginal_std(), gmm.fingerprint(), gmm.marginal_std()) == before
        assert field.fingerprint() == GaussianFieldModel((2, 2, 1), 0.5, 0.04 * np.eye(4)).fingerprint()
        for arr in (field.mu, field.cov_eigvals, field.cov_eigvecs, gmm.weights, gmm.means, gmm.variances):
            with pytest.raises(ValueError):
                arr[0] = 0.0


@given(
    arrays(np.float64, (2, 2, 1), elements=st.floats(-10, 10)),
    st.integers(1, 50),
)
@settings(max_examples=30, deadline=None)
def test_predictions_finite_and_shaped(vals, t):
    s = linear_schedule(50, 1.2e-3, 0.24)
    gmm = two_mode(2, 2, 1)
    field = exp_field(2, 2, 1)
    x = vals.reshape(1, 4)
    for model in (gmm, field):
        out = model.predict_array(x, t, s)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
