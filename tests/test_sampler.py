import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzydiff import (
    GaussianFieldModel,
    GmmPixelModel,
    RngStream,
    RowStreams,
    ValidationError,
    fuzzy_sample,
    linear_schedule,
)
from fuzzydiff.projection import project_reconstruct_array
from fuzzydiff.sampler import _reverse_step_array, ancestral_sample_array

from conftest import exp_field
from oracle_helpers import fuse, ks_critical, ks_two_sample


def std_normal_model() -> GaussianFieldModel:
    return GaussianFieldModel((1, 1, 1), 0.0, np.array([[1.0]]))


def reverse_variance(s, t: int, v: float) -> float:
    """Variance after one reverse step from variance v, for unit-variance data.

    For N(0, 1) data the reverse mean is sqrt(alpha_t) * x_t, so the step maps
    v to alpha_t * v + beta_tilde_t.
    """
    return s.alpha[t] * v + s.beta_tilde[t]


def step_apart(model, x, t, s, rng):
    """_reverse_step_array with noise and result buffers of its own."""
    return _reverse_step_array(model, x, t, s, rng, noise=np.empty_like(x), out=np.empty_like(x))


def spelled_out_reverse_step(model, x, t, s, rng):
    """The reverse step out of place, with its per-step scalars computed inline."""
    eps_hat = model.predict_array(x, t, s)
    scale = (1.0 - s.alpha[t]) / s.sqrt_one_minus_alpha_bar[t]
    mean = (x - scale * eps_hat) / np.sqrt(s.alpha[t])
    if t == 1:
        return mean
    return mean + np.sqrt(s.beta_tilde[t]) * rng.normals(x.size).reshape(x.shape)


class TestWeightMap:
    """The weight-map checks of fuzzy_sample: range, spatial dims, channels."""

    def rgb_model(self):
        return GmmPixelModel((2, 2, 3), np.array([1.0]), np.array([0.5]), np.array([0.01]))

    def sample(self, model, m, J=1, rng=None):
        x_cond = np.full(model.shape, 0.5)
        s = linear_schedule(3, 0.01, 0.02)
        return fuzzy_sample(model, s, x_cond, m, J, 1, rng or RngStream(0, 0))

    def test_range_enforced(self):
        model = self.rgb_model()
        for bad in (1.3, -0.1, np.full((2, 2, 1), 1.3), np.full((2, 2, 1), np.nan)):
            with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
                self.sample(model, bad)

    def test_single_channel_broadcasts(self):
        # A one-channel map conditions every channel of a pixel alike: where it
        # is 1 all three channels reproduce x_cond, where it is 0 none is pinned.
        model = self.rgb_model()
        m = np.array([[1.0, 0.0], [0.0, 1.0]])[:, :, None]
        out = self.sample(model, m, rng=RngStream(4, 0)).reshape(model.shape)
        full = self.sample(model, np.repeat(m, 3, axis=2), rng=RngStream(4, 0))
        assert np.array_equal(out.reshape(-1), full[0])
        assert np.all(out[[0, 1], [0, 1]] == 0.5)
        assert np.all(out[[0, 1], [1, 0]] != 0.5)

    def test_spatial_mismatch_rejected(self):
        model = self.rgb_model()
        with pytest.raises(ValidationError, match="spatial dims"):
            self.sample(model, np.zeros((3, 2, 1)))
        with pytest.raises(ValidationError, match="2 channels, image has 3"):
            self.sample(model, np.zeros((2, 2, 2)))


class TestForward:
    """Forward noising as project_reconstruct_array runs it before the reverse chain."""

    def test_t_zero_is_identity_and_drawless(self, field_model, sched50):
        x0 = field_model.mu[None, :]
        rng = RngStream(7, 0)
        out = project_reconstruct_array(field_model, sched50, x0, 0, rng)
        assert np.array_equal(out, x0)
        # No randomness was consumed: the next draw matches a fresh stream.
        assert np.array_equal(rng.normals(4), RngStream(7, 0).normals(4))

    def test_marginal_variance(self, sched50):
        # Noising zeros to level t gives variance 1 - alpha_bar[t]; the chain
        # back down then follows the unit-variance reverse recursion. At t=10
        # the result (0.31) is far from what unit or no forward noise gives.
        t = 10
        out = project_reconstruct_array(
            std_normal_model(), sched50, np.zeros((100_000, 1)), t, RngStream(12, 0)
        )
        expect = 1.0 - sched50.alpha_bar[t]
        for k in range(t, 0, -1):
            expect = reverse_variance(sched50, k, expect)
        assert abs(out.var() / expect - 1.0) < 0.02

    def test_range_check(self, field_model, sched50):
        x0 = field_model.mu[None, :]
        with pytest.raises(IndexError):
            project_reconstruct_array(field_model, sched50, x0, 51, RngStream(0, 0))
        with pytest.raises(IndexError):
            project_reconstruct_array(field_model, sched50, x0, -1, RngStream(0, 0))


class TestRenoise:
    """The renoise step between harmonization iterations of fuzzy_sample."""

    def test_variance_matches_beta(self, sched50):
        # With m=0 every fusion returns the synthetic branch, so for N(0, 1)
        # data each step t > 1 runs J reverse steps with a renoise
        # v -> alpha_t * v + beta_t between them.
        J, n = 3, 100_000
        rows = fuzzy_sample(
            std_normal_model(), sched50, np.zeros((1, 1, 1)), 0.0, J, n, RngStream(6, 0)
        )
        expect = 1.0
        for t in range(sched50.T, 0, -1):
            for j in range(1, (J if t > 1 else 1) + 1):
                expect = reverse_variance(sched50, t, expect)
                if j < J and t > 1:
                    expect = sched50.alpha[t] * expect + sched50.beta[t]
        assert abs(rows.var() / expect - 1.0) < 0.02

    def test_deterministic(self, field_model, sched50):
        x_cond, m = field_model.mu.reshape(8, 8, 1), np.full((8, 8, 1), 0.5)
        args = (field_model, sched50, x_cond, m, 3, 2)
        a = fuzzy_sample(*args, RngStream(9, 1))
        b = fuzzy_sample(*args, RngStream(9, 1))
        assert np.array_equal(a, b)


class TestReverseStep:
    """_reverse_step_array, the one reverse step every chain runs."""

    def test_final_step_deterministic(self, field_model, sched50):
        x = field_model.mu[None, :]
        rng = RngStream(1, 0)
        a = step_apart(field_model, x, 1, sched50, rng)
        b = step_apart(field_model, x, 1, sched50, RngStream(2, 0))
        assert np.array_equal(a, b)
        assert np.array_equal(rng.normals(4), RngStream(1, 0).normals(4))

    def test_collapse_toward_deterministic_data(self, sched50):
        # With a zero-covariance oracle the exact eps residual cancels all
        # noise and one reverse step from the zero-noise point lands on the
        # previous step's zero-noise point, plus the step's own noise term.
        model = GaussianFieldModel((2, 2, 1), 0.25, np.zeros((4, 4)))
        for t in (1, 10, 50):
            xt = sched50.sqrt_alpha_bar[t] * model.mu[None, :]
            out = step_apart(model, xt, t, sched50, RngStream(5, t))
            noise = np.sqrt(sched50.beta_tilde[t]) * RngStream(5, t).normals(4)
            want = sched50.sqrt_alpha_bar[t - 1] * model.mu
            assert np.abs(out - noise - want).max() < 1e-10

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_bytes_of_the_spelled_out_step(self, kind, field_model, gmm_model, sched200):
        model = field_model if kind == "field" else gmm_model
        pool = 0.5 + 0.3 * RngStream(42, 0).normals(1000 * 64).reshape(1000, 64)
        for n in (1, 2, 18, 19, 400, 1000, 19, 1):  # alternating counts
            x = pool[-n:].copy()
            kept = x.copy()
            for t in (1, 2, sched200.T):
                expect = spelled_out_reverse_step(model, x, t, sched200, RngStream(43, t))
                noise, out = np.full_like(x, np.nan), np.full_like(x, np.nan)
                got = _reverse_step_array(
                    model, x, t, sched200, RngStream(43, t), noise=noise, out=out
                )
                assert got is out and out.tobytes() == expect.tobytes()
            assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("streams", ["one", "rows"])
    @pytest.mark.parametrize("kind", ["field", "gmm"])
    def test_noise_may_be_the_rows_it_replaces(
        self, kind, streams, field_model, gmm_model, sched200
    ):
        # A chain draws each step's noise into the state the step replaces:
        # the step has read x for the last time when it draws.
        model = field_model if kind == "field" else gmm_model
        pool = 0.5 + 0.3 * RngStream(42, 0).normals(400 * 64).reshape(400, 64)

        def rng(n, t):
            root = RngStream(43, t)
            return root if streams == "one" else RowStreams(root.child(i) for i in range(n))

        for n in (1, 19, 400):
            for t in (1, 2, sched200.T):
                x = pool[-n:].copy()
                apart = step_apart(model, x, t, sched200, rng(n, t))
                out = np.full_like(x, np.nan)
                got = _reverse_step_array(model, x, t, sched200, rng(n, t), noise=x, out=out)
                assert got is out and out.tobytes() == apart.tobytes()

    def test_range_and_shape_checks(self, field_model, sched50):
        x = field_model.mu[None, :]
        with pytest.raises(IndexError):
            step_apart(field_model, x, 0, sched50, RngStream(0, 0))
        with pytest.raises(ValueError):
            step_apart(field_model, np.zeros((1, 4)), 5, sched50, RngStream(0, 0))


class TestChainBuffers:
    """The chain steps into two buffers of its own; x is never written."""

    @pytest.mark.parametrize("kind", ["field", "gmm"])
    @pytest.mark.parametrize("n", [1, 19, 400])
    def test_bytes_of_the_spelled_out_chain(self, kind, n, field_model, gmm_model, sched50):
        model = field_model if kind == "field" else gmm_model
        x = model.sample_x0(n, RngStream(44, 0))
        kept = x.copy()
        rng = RngStream(45, 0)
        eps = rng.normals(x.size).reshape(x.shape)
        xt = sched50.sqrt_alpha_bar[20] * x + sched50.sqrt_one_minus_alpha_bar[20] * eps
        for step in range(20, 0, -1):
            xt = spelled_out_reverse_step(model, xt, step, sched50, rng)
        got = project_reconstruct_array(model, sched50, x, 20, RngStream(45, 0))
        assert got.tobytes() == xt.tobytes()
        assert x.tobytes() == kept.tobytes()

    # glibc returns freed 512 KiB arrays to the OS, so a step that allocated
    # them would fault them in again (~400 faults a step at 1000 rows).
    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc",
        reason="counts page faults under glibc malloc's trim and mmap thresholds",
    )
    # The row-batched fuzzy chain faults in at most its new RowStreams'
    # read-ahead and scratch: 121 pages for the chain after the warm one,
    # then none, as malloc reuses what the previous chain freed (2-vCPU Xeon).
    @pytest.mark.parametrize(
        "kind, rows, bound", [("gmm", 1000, 40), ("field", 400, 4), ("fuzzy", 16, 8)]
    )
    def test_warm_chain_faults_in_no_fresh_pages(
        self, kind, rows, bound, field_model, gmm_model, sched50
    ):
        import resource

        model = gmm_model if kind == "gmm" else field_model
        x = model.sample_x0(rows, RngStream(46, 0))
        if kind == "fuzzy":
            x_cond = x[0].reshape(model.shape)
            m = RngStream(46, 1).uniforms(model.dim).reshape(model.shape)

            def chain(seed):
                streams = RowStreams(RngStream(seed, 0).child(i) for i in range(rows))
                fuzzy_sample(model, sched50, x_cond, m, 5, rows, streams)
        else:
            def chain(seed):
                project_reconstruct_array(model, sched50, x, 50, RngStream(seed, 0))
        chain(47)  # warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        chain(48)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 50 < bound


class TestAncestral:
    def test_scalar_standard_normal_chain(self, sched50, sched200):
        # For unit-variance Gaussian data the reverse mean reduces to
        # sqrt(alpha_t) * x_t, so the chain variance obeys the recursion
        # v_{t-1} = alpha_t * v_t + beta_tilde_t starting from v_T = 1.
        # The fixed-variance kernel under-disperses at coarse T; the test
        # pins the chain to that analytic value, which approaches 1 as the
        # schedule refines.
        model = GaussianFieldModel((1, 1, 1), 0.0, np.array([[1.0]]))

        def v_pred(s):
            v = 1.0
            for t in range(s.T, 0, -1):
                v = s.alpha[t] * v + s.beta_tilde[t]
            return v

        v50, v200 = v_pred(sched50), v_pred(sched200)
        assert v50 < v200 < 1.0
        assert v200 > 0.96
        rows = ancestral_sample_array(model, sched50, 20_000, RngStream(21, 0))
        assert abs(rows.mean()) < 0.025
        assert abs(rows.var() / v50 - 1.0) < 0.04

    def test_deterministic_and_shape_checked(self, field_model, sched50):
        a = ancestral_sample_array(field_model, sched50, 1, RngStream(33, 0))
        b = ancestral_sample_array(field_model, sched50, 1, RngStream(33, 0))
        assert np.array_equal(a, b)
        assert a.shape == (1, field_model.dim)


class TestFuzzyFuse:
    """One fusion step, run through ``oracle_helpers.fuse``."""

    def hand_schedule(self):
        # beta_1 = 0.36 makes sqrt(alpha_bar[1]) = 0.8 for the t=2 fusion.
        return linear_schedule(2, 0.36, 0.5)

    def test_hand_value(self):
        s = self.hand_schedule()
        xs = np.full((1, 1, 1), 0.5)
        xr = np.full((1, 1, 1), 1.5)
        xc = np.full((1, 1, 1), 1.0)
        out = fuse(xs, xr, xc, 0.5, 2, s)
        assert abs(out[0, 0, 0] - 1.0828427124746190) < 1e-12

    def test_boundaries_bit_exact(self, sched50):
        rng = RngStream(17, 0)
        xs = rng.normals(64).reshape(8, 8, 1)
        xr = rng.normals(64).reshape(8, 8, 1)
        xc = rng.normals(64).reshape(8, 8, 1)
        for t in (1, 7, 50):
            lo = fuse(xs, xr, xc, 0.0, t, sched50)
            hi = fuse(xs, xr, xc, 1.0, t, sched50)
            assert np.array_equal(lo, xs)
            assert np.array_equal(hi, xr)

    def test_mixed_map_is_pixelwise(self, sched50):
        rng = RngStream(18, 0)
        xs = rng.normals(9).reshape(3, 3, 1)
        xr = rng.normals(9).reshape(3, 3, 1)
        xc = rng.normals(9).reshape(3, 3, 1)
        mvals = np.array([[0.0, 1.0, 0.5]] * 3).reshape(3, 3, 1)
        out = fuse(xs, xr, xc, mvals, 5, sched50)
        assert np.array_equal(out[:, 0, 0], xs[:, 0, 0])
        assert np.array_equal(out[:, 1, 0], xr[:, 1, 0])
        mid = fuse(xs, xr, xc, 0.5, 5, sched50)
        assert np.array_equal(out[:, 2, 0], mid[:, 2, 0])

    @pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_variance_preserved(self, m, sched50):
        t = 20
        v = 1.0 - sched50.alpha_bar[t - 1]
        rng = RngStream(190, 0)
        n = 100_000
        shape = (n, 1, 1)
        x_cond = np.full(shape, 0.7)
        base = sched50.sqrt_alpha_bar[t - 1] * 0.7
        xs = base + np.sqrt(v) * rng.normals(n).reshape(shape)
        xr = base + np.sqrt(v) * rng.normals(n).reshape(shape)
        out = fuse(xs, xr, x_cond, m, t, sched50)
        assert abs(out.var() / v - 1.0) < 0.02

    @given(
        arrays(np.float64, (2, 2, 1), elements=st.floats(-5, 5)),
        arrays(np.float64, (2, 2, 1), elements=st.floats(-5, 5)),
        arrays(np.float64, (2, 2, 1), elements=st.floats(-5, 5)),
        arrays(np.float64, (2, 2, 1), elements=st.floats(0, 1)),
        st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuse_properties(self, a, b, c, m, t):
        s = linear_schedule(50, 1.2e-3, 0.24)
        out = fuse(a, b, c, m, t, s)
        assert np.all(np.isfinite(out))
        zero = m == 0.0
        ones = m == 1.0
        assert np.array_equal(out[zero], a[zero])
        assert np.array_equal(out[ones], b[ones])


class TestFuzzySample:
    def test_full_conditioning_reproduces_input(self, gmm_model, sched50):
        x_cond = gmm_model.sample_x0(1, RngStream(71, 0))[0].reshape(8, 8, 1)
        for J in (1, 3):
            [out] = fuzzy_sample(gmm_model, sched50, x_cond, 1.0, J, 1, RngStream(72, 0))
            assert np.array_equal(out, x_cond.reshape(-1))

    def test_zero_conditioning_matches_unconditional(self, gmm_model, sched50):
        n = 320
        cond = np.full((8, 8, 1), 0.5)
        m = np.zeros((8, 8, 1))
        fuzzy = fuzzy_sample(gmm_model, sched50, cond, m, 1, n, RngStream(73, 0)).reshape(-1)
        plain = ancestral_sample_array(gmm_model, sched50, n, RngStream(74, 0)).reshape(-1)
        d = ks_two_sample(fuzzy, plain)
        assert d < ks_critical(fuzzy.size, plain.size, alpha=0.01)

    def test_binary_map_inpaints(self, gmm_model, sched50):
        # Left half pinned, right half synthesized. With the per-pixel oracle
        # the synthesized pixels cannot see the conditioning content at all,
        # so changing it must leave them bit-identical.
        mvals = np.zeros((8, 8, 1))
        mvals[:, :4, :] = 1.0
        cond_a = np.full((8, 8, 1), 0.25)
        cond_b = np.full((8, 8, 1), 0.25)
        cond_b[:, :4, :] = 0.75
        out_a = fuzzy_sample(gmm_model, sched50, cond_a, mvals, 2, 1, RngStream(75, 0))
        out_b = fuzzy_sample(gmm_model, sched50, cond_b, mvals, 2, 1, RngStream(75, 0))
        out_a, out_b = out_a.reshape(8, 8, 1), out_b.reshape(8, 8, 1)
        assert np.array_equal(out_a[:, :4], cond_a[:, :4])
        assert np.array_equal(out_b[:, :4], cond_b[:, :4])
        assert np.array_equal(out_a[:, 4:], out_b[:, 4:])

    def test_spatial_locality_with_block_covariance(self, sched50):
        # Two independent halves: conditioning the left half must leave the
        # right half's marginal untouched.
        base = exp_field()
        cov = base.moments()[1]
        col = np.arange(64) % 8
        left = col < 4
        cov_bd = np.where(left[:, None] == left[None, :], cov, 0.0)
        model = GaussianFieldModel((8, 8, 1), 0.5, cov_bd)

        mvals = np.zeros((8, 8, 1))
        mvals[:, :4, :] = 1.0
        x_cond = model.sample_x0(1, RngStream(80, 0))[0]
        n = 400
        rows = fuzzy_sample(model, sched50, x_cond.reshape(8, 8, 1), mvals, 1, n, RngStream(81, 0))
        # Left half equals the conditioning image in every sample.
        assert np.array_equal(rows[:, left], np.broadcast_to(x_cond[left], (n, 32)))
        # Right-half pixels keep the unconditional marginal.
        right_rows = rows[:, ~left]
        direct = model.sample_x0(n, RngStream(82, 0))[:, ~left]
        pooled_crit = ks_critical(right_rows.size, direct.size, alpha=0.01)
        # Pixels within the half are correlated, so pool per-pixel KS checks
        # instead: each pixel against its own direct draws, family-corrected.
        per_pixel_crit = ks_critical(n, n, alpha=0.01 / 32)
        stats = [
            ks_two_sample(right_rows[:, i], direct[:, i]) for i in range(32)
        ]
        assert max(stats) < per_pixel_crit, (max(stats), per_pixel_crit, pooled_crit)
        mean_err = np.abs(right_rows.mean(axis=0) - 0.5).max()
        assert mean_err < 0.05

    def test_conditioning_monotonicity_quick(self, field_model, sched50):
        x_cond = field_model.sample_x0(1, RngStream(90, 0))[0]
        dists = []
        for k, m in enumerate((0.0, 0.5, 1.0)):
            rows = fuzzy_sample(
                field_model,
                sched50,
                x_cond.reshape(8, 8, 1),
                np.full((8, 8, 1), m),
                1,
                200,
                RngStream(91, k),
            )
            dists.append(np.linalg.norm(rows - x_cond, axis=1).mean())
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] == 0.0

    def test_deterministic(self, gmm_model, sched50):
        x_cond = np.full((8, 8, 1), 0.5)
        a = fuzzy_sample(gmm_model, sched50, x_cond, 0.3, 2, 1, RngStream(96, 4))
        b = fuzzy_sample(gmm_model, sched50, x_cond, 0.3, 2, 1, RngStream(96, 4))
        assert np.array_equal(a, b)
        c = fuzzy_sample(gmm_model, sched50, x_cond, 0.3, 3, 1, RngStream(96, 4))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("oracle", ["gmm_model", "field_model"])
    def test_batch_axis_conditions_each_row_on_its_own_image(self, oracle, sched50, request):
        model = request.getfixturevalue(oracle)
        n = 3
        images = np.stack([np.full((8, 8, 1), v) for v in (0.2, 0.5, 0.8)])
        maps = np.stack([np.full((8, 8, 1), v) for v in (0.0, 0.4, 1.0)])
        streams = [RngStream(97, 0).child(i) for i in range(n)]
        rows = fuzzy_sample(model, sched50, images, maps, 2, n, RowStreams(streams))
        for i in range(n):
            stream = RngStream(97, 0).child(i)
            [alone] = fuzzy_sample(model, sched50, images[i], maps[i], 2, 1, stream)
            assert alone.tobytes() == rows[i].tobytes()
        # One image, per-sample maps, on fresh streams: a RowStreams owns its streams.
        streams = [RngStream(97, 0).child(i) for i in range(n)]
        shared = fuzzy_sample(model, sched50, images[1], maps, 2, n, RowStreams(streams))
        stream = RngStream(97, 0).child(2)
        [alone] = fuzzy_sample(model, sched50, images[1], maps[2], 2, 1, stream)
        assert alone.tobytes() == shared[2].tobytes()
        with pytest.raises(ValidationError, match="image shape"):
            fuzzy_sample(model, sched50, images, 0.5, 2, 2, RngStream(0, 0))
        with pytest.raises(ValidationError, match="3 weight maps for 2 samples"):
            fuzzy_sample(model, sched50, images[0], maps, 2, 2, RngStream(0, 0))

    @pytest.mark.parametrize("batched", [False, True])
    def test_read_only_inputs_give_the_same_bytes(self, field_model, sched50, batched):
        # The chain writes only its own buffers and its draws, never x_cond or m.
        n = 3
        shape = (n, *field_model.shape) if batched else field_model.shape
        x_cond = RngStream(98, 0).normals(int(np.prod(shape))).reshape(shape)
        m = RngStream(98, 1).uniforms(x_cond.size).reshape(shape)
        m[..., :2, :, :] = 1.0
        m[..., -2:, :, :] = 0.0

        def run(x_cond, m):
            streams = RowStreams(RngStream(99, 0).child(i) for i in range(n))
            return fuzzy_sample(field_model, sched50, x_cond, m, 2, n, streams)

        expect = run(x_cond.copy(), m.copy())
        x_cond.flags.writeable = m.flags.writeable = False
        assert run(x_cond, m).tobytes() == expect.tobytes()

    def test_config_validation(self, gmm_model, sched50):
        # J=0 would skip every step above t=1 and return the noised start state.
        x_cond = np.full((8, 8, 1), 0.5)
        with pytest.raises(ValidationError, match="J must be >= 1"):
            fuzzy_sample(gmm_model, sched50, x_cond, np.zeros((8, 8, 1)), 0, 1, RngStream(0, 0))
        with pytest.raises(ValidationError, match="J must be >= 1"):
            fuzzy_sample(gmm_model, sched50, x_cond, 0.3, 0, 1, RngStream(0, 0))
        with pytest.raises(ValidationError, match="image shape"):
            fuzzy_sample(gmm_model, sched50, x_cond.reshape(-1), 0.3, 1, 1, RngStream(0, 0))
