import numpy as np
import pytest

from fuzzydiff import (
    Grid,
    RngStream,
    ValidationError,
    ValidationStats,
    attention_from_discrepancies,
    attention_map,
    project_reconstruct_array,
    validation_stats,
    weight_from_attention,
)
from fuzzydiff.projection import SIGMA_FLOOR_SCALE, _discrepancy_rows

from conftest import exp_field


def mean_image(model):
    return model.moments()[0].reshape(model.shape)


def draw_image(model, rng):
    return model.sample_x0(1, rng)[0].reshape(model.shape)


class TestReconstruct:
    def test_depth_zero_is_exact_and_drawless(self, field_model, sched50):
        x = field_model.moments()[0][None, :]
        rng = RngStream(3, 0)
        out = project_reconstruct_array(field_model, sched50, x, 0, rng)
        assert np.array_equal(out, x)
        assert np.array_equal(rng.normals(2), RngStream(3, 0).normals(2))

    def test_unbiased_at_the_mean(self, field_model, sched50):
        # The reconstruction pipeline is affine in the draws, and starting
        # from the prior mean every noise term has zero expectation, so the
        # reconstruction mean is the prior mean exactly. Check it per pixel
        # against the Monte Carlo standard error.
        n, t = 200, 20
        X = np.broadcast_to(field_model.moments()[0], (n, 64)).copy()
        rec = project_reconstruct_array(field_model, sched50, X, t, RngStream(41, 0))
        se = rec.std(axis=0, ddof=1) / np.sqrt(n)
        z = np.abs(rec.mean(axis=0) - 0.5) / se
        assert z.max() < 4.5

    def test_shape_checked(self, field_model, sched50):
        with pytest.raises(ValidationError):
            project_reconstruct_array(field_model, sched50, np.zeros((1, 4)), 5, RngStream(0, 0))
        with pytest.raises(ValidationError):
            project_reconstruct_array(field_model, sched50, np.zeros(64), 5, RngStream(0, 0))
        with pytest.raises(IndexError):
            x = field_model.moments()[0][None, :]
            project_reconstruct_array(field_model, sched50, x, 51, RngStream(0, 0))


class TestDiscrepancy:
    def test_multichannel_norm(self):
        d = _discrepancy_rows(np.zeros((1, 3)), np.array([[1.0, 2.0, 2.0]]), (1, 1, 3))
        assert d.shape == (1, 1)
        assert abs(d[0, 0] - 3.0) < 1e-15

    def test_single_channel_is_absolute_difference(self):
        d = _discrepancy_rows(np.array([[0.2, -0.5]]), np.array([[0.7, -0.1]]), (1, 2, 1))
        assert np.allclose(d, [[0.5, 0.4]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _discrepancy_rows(np.zeros((1, 2)), np.zeros((1, 3)), (1, 2, 1))


class TestValidationStats:
    def test_basic_shapes_and_floor(self, field_model, sched50):
        V = field_model.sample_x0(40, RngStream(50, 0))
        stats = validation_stats(field_model, sched50, V, [10, 25], reps=1, rng=RngStream(51, 0))
        assert stats.depths == (10, 25)
        assert stats.v_count == 40
        floor = SIGMA_FLOOR_SCALE * field_model.marginal_std()
        assert stats.sigma_floor == floor
        for t in stats.depths:
            assert stats.mu[t].shape == (8, 8, 1)
            assert stats.mu[t].values.min() >= 0.0
            assert stats.sigma[t].values.min() >= floor

    def test_single_member_sigma_hits_floor(self, field_model, sched50):
        V = field_model.sample_x0(1, RngStream(52, 0))
        stats = validation_stats(field_model, sched50, V, [15], reps=1, rng=RngStream(53, 0))
        assert np.all(stats.sigma[15].values == stats.sigma_floor)

    def test_depth_zero_degenerates(self, field_model, sched50):
        V = field_model.sample_x0(5, RngStream(54, 0))
        stats = validation_stats(field_model, sched50, V, [0], reps=1, rng=RngStream(55, 0))
        assert np.all(stats.mu[0].values == 0.0)
        assert np.all(stats.sigma[0].values == stats.sigma_floor)

    def test_argument_validation(self, field_model, sched50):
        V = field_model.sample_x0(2, RngStream(56, 0))
        with pytest.raises(ValidationError):
            validation_stats(field_model, sched50, V, [5, 5], reps=1, rng=RngStream(0, 0))
        with pytest.raises(ValidationError):
            validation_stats(field_model, sched50, np.empty((0, 64)), [5], reps=1, rng=RngStream(0, 0))
        with pytest.raises(ValidationError):
            validation_stats(field_model, sched50, V[:, :3], [5], reps=1, rng=RngStream(0, 0))
        with pytest.raises(ValidationError):
            validation_stats(field_model, sched50, V, [5], reps=0, rng=RngStream(0, 0))

    def test_depth_order_does_not_change_values(self, field_model, sched50):
        V = field_model.sample_x0(8, RngStream(57, 0))
        a = validation_stats(field_model, sched50, V, [10, 30], reps=1, rng=RngStream(58, 0))
        b = validation_stats(field_model, sched50, V, [30, 10], reps=1, rng=RngStream(58, 0))
        # Each depth owns child stream rng.child(position); swapping the
        # order swaps the streams, so only a same-order rerun is identical.
        c = validation_stats(field_model, sched50, V, [10, 30], reps=1, rng=RngStream(58, 0))
        assert a.mu[10] == c.mu[10] and a.sigma[30] == c.sigma[30]
        assert set(b.depths) == {30, 10}

    def test_averaging_reps_tightens_sigma(self, gmm_model, sched50):
        V = gmm_model.sample_x0(30, RngStream(59, 0))
        one = validation_stats(gmm_model, sched50, V, [20], reps=1, rng=RngStream(60, 0))
        four = validation_stats(gmm_model, sched50, V, [20], reps=4, rng=RngStream(60, 0))
        assert four.sigma[20].values.mean() < one.sigma[20].values.mean()

    def test_roundtrip(self, field_model, sched50, tmp_path):
        V = field_model.sample_x0(6, RngStream(61, 0))
        stats = validation_stats(field_model, sched50, V, [10, 25], reps=1, rng=RngStream(62, 0))
        stats.save(tmp_path / "stats")
        loaded = ValidationStats.load(tmp_path / "stats")
        assert loaded.depths == stats.depths
        assert loaded.v_count == stats.v_count
        assert loaded.reps == stats.reps
        assert loaded.sigma_floor == stats.sigma_floor
        assert loaded.model_fingerprint == stats.model_fingerprint
        assert loaded.schedule_fingerprint == stats.schedule_fingerprint
        for t in stats.depths:
            assert loaded.mu[t] == stats.mu[t]
            assert loaded.sigma[t] == stats.sigma[t]

    def test_load_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ValidationStats.load(tmp_path / "absent")

    def test_mu_converges_in_validation_size(self, field_model, sched50):
        # Doubling the validation set from 500 to 1000 members moves each
        # pixel's mu by well under 10%. Two reconstructions per member keep
        # the per-member noise from dominating the comparison; the worst gap
        # across five probe seeds measured 0.086.
        V = field_model.sample_x0(1000, RngStream(310, 0))
        full = validation_stats(field_model, sched50, V, [20], reps=2, rng=RngStream(311, 0))
        half = validation_stats(field_model, sched50, V[:500], [20], reps=2, rng=RngStream(311, 0))
        rel = np.abs(half.mu[20].values - full.mu[20].values) / full.mu[20].values
        assert rel.max() < 0.10


def crafted_stats(model, s, depth=5, mu=3.0, sigma=1.0):
    shape = (model.shape[0], model.shape[1], 1)
    return ValidationStats(
        depths=(depth,),
        mu={depth: Grid(np.full(shape, mu))},
        sigma={depth: Grid(np.full(shape, sigma))},
        v_count=10,
        reps=1,
        sigma_floor=SIGMA_FLOOR_SCALE * model.marginal_std(),
        model_fingerprint=model.fingerprint(),
        schedule_fingerprint=s.fingerprint(),
    )


class TestAttention:
    def test_score_normalization_and_clipping(self, field_model, sched50):
        stats = crafted_stats(field_model, sched50)
        dvals = np.full((8, 8, 1), 4.0)
        dvals[0, 0, 0] = 6.4
        dvals[0, 1, 0] = 15.0
        dvals[0, 2, 0] = 0.0
        out = attention_from_discrepancies({5: dvals}, stats)
        assert abs(out[0, 0, 0] - 3.4) < 1e-12
        assert out[0, 1, 0] == 6.0
        assert out[0, 2, 0] == 1.0
        assert np.all(out[1:] == 1.0)

    def test_depth_averaging(self, field_model, sched50):
        shape = (8, 8, 1)
        stats = ValidationStats(
            depths=(2, 4),
            mu={2: Grid(np.zeros(shape)), 4: Grid(np.zeros(shape))},
            sigma={2: Grid(np.ones(shape)), 4: Grid(np.ones(shape))},
            v_count=3,
            reps=1,
            sigma_floor=1e-9,
            model_fingerprint=field_model.fingerprint(),
            schedule_fingerprint=sched50.fingerprint(),
        )
        dmaps = {2: np.full(shape, 2.0), 4: np.full(shape, 5.0)}
        a = attention_from_discrepancies(dmaps, stats)
        assert a.shape == shape
        assert np.all(a == 3.5)
        with pytest.raises(ValidationError):
            attention_from_discrepancies({2: dmaps[2]}, stats)

    def test_permutation_consistency(self, field_model, sched50):
        # Normalization is strictly pixel-local, so permuting the pixels of
        # every input permutes the attention map the same way, exactly.
        rng = RngStream(64, 0)
        shape = (8, 8, 1)
        d = np.abs(rng.normals(64)).reshape(shape)
        mu = np.abs(rng.normals(64)).reshape(shape)
        sigma = 0.5 + np.abs(rng.normals(64)).reshape(shape)
        perm = np.argsort(rng.uniforms(64))

        def build(dv, mv, sv):
            stats = ValidationStats(
                depths=(7,),
                mu={7: Grid(mv)},
                sigma={7: Grid(sv)},
                v_count=4,
                reps=1,
                sigma_floor=1e-9,
                model_fingerprint=field_model.fingerprint(),
                schedule_fingerprint=sched50.fingerprint(),
            )
            return attention_from_discrepancies({7: dv}, stats)

        base = build(d, mu, sigma).reshape(-1)
        permuted = build(
            d.reshape(-1)[perm].reshape(shape),
            mu.reshape(-1)[perm].reshape(shape),
            sigma.reshape(-1)[perm].reshape(shape),
        ).reshape(-1)
        assert np.array_equal(permuted, base[perm])

    def test_full_pipeline_permutation_equivariance(self, gmm_model, sched50):
        # Attention is pixel-local: with the per-pixel mixture oracle,
        # permuting the probe, the stats grids, and the pixel alignment of
        # the noise draws permutes the attention map exactly.
        class PixelPermutedStream:
            def __init__(self, base, perm):
                self._base = base
                self._perm = perm

            def normals(self, n, out=None):
                vals = self._base.normals(n)
                vals = vals.reshape(-1, self._perm.size)[:, self._perm].reshape(-1)
                if out is None:
                    return vals
                out.reshape(-1)[:] = vals
                return out

            def child(self, index):
                return PixelPermutedStream(self._base.child(index), self._perm)

        V = gmm_model.sample_x0(30, RngStream(85, 0))
        stats = validation_stats(gmm_model, sched50, V, [10, 20], reps=1, rng=RngStream(86, 0))
        probe = draw_image(gmm_model, RngStream(87, 0))
        base = attention_map(probe[None], stats, gmm_model, sched50, rng=RngStream(88, 0))

        perm = np.argsort(RngStream(89, 0).uniforms(64))

        def permute(values):
            return values.reshape(-1)[perm].reshape(values.shape)

        permuted_stats = ValidationStats(
            depths=stats.depths,
            mu={t: Grid(permute(stats.mu[t].values)) for t in stats.depths},
            sigma={t: Grid(permute(stats.sigma[t].values)) for t in stats.depths},
            v_count=stats.v_count,
            reps=stats.reps,
            sigma_floor=stats.sigma_floor,
            model_fingerprint=stats.model_fingerprint,
            schedule_fingerprint=stats.schedule_fingerprint,
        )
        out = attention_map(
            permute(probe)[None],
            permuted_stats,
            gmm_model,
            sched50,
            rng=PixelPermutedStream(RngStream(88, 0), perm),
        )
        assert np.array_equal(out.reshape(-1), base.reshape(-1)[perm])

    def test_zero_depth_fixed_point(self, field_model, sched50):
        # Depth 0 reconstructs exactly, so any probe image whatsoever scores
        # the clip minimum everywhere and keeps full conditioning weight.
        V = field_model.sample_x0(4, RngStream(65, 0))
        stats = validation_stats(field_model, sched50, V, [0], reps=1, rng=RngStream(66, 0))
        probe = np.full((8, 8, 1), 9.5)
        [a] = attention_map(probe[None], stats, field_model, sched50, rng=RngStream(67, 0))
        assert np.all(a == 1.0)
        assert np.all(weight_from_attention(a) == 1.0)

    def test_in_distribution_probe_scores_low(self, field_model, sched50):
        V = field_model.sample_x0(80, RngStream(68, 0))
        stats = validation_stats(field_model, sched50, V, [10, 20], reps=1, rng=RngStream(69, 0))
        probe = draw_image(field_model, RngStream(70, 0))
        a = attention_map(probe[None], stats, field_model, sched50, rng=RngStream(71, 0))
        assert a.mean() < 3.0

    def test_fingerprint_mismatch_rejected(self, field_model, sched50, sched200):
        V = field_model.sample_x0(4, RngStream(72, 0))
        stats = validation_stats(field_model, sched50, V, [5], reps=1, rng=RngStream(73, 0))
        probe = mean_image(field_model)
        with pytest.raises(ValidationError, match="stale"):
            attention_map(probe[None], stats, field_model, sched200, rng=RngStream(74, 0))
        other = exp_field(mean=0.4)
        with pytest.raises(ValidationError, match="stale"):
            attention_map(probe[None], stats, other, sched50, rng=RngStream(74, 0))

    def test_deterministic(self, field_model, sched50):
        V = field_model.sample_x0(10, RngStream(75, 0))
        stats = validation_stats(field_model, sched50, V, [10], reps=1, rng=RngStream(76, 0))
        probe = draw_image(field_model, RngStream(77, 0))
        a = attention_map(probe[None], stats, field_model, sched50, rng=RngStream(78, 0))
        b = attention_map(probe[None], stats, field_model, sched50, rng=RngStream(78, 0))
        assert np.array_equal(a, b)
        with pytest.raises(ValidationError, match="image shape"):
            attention_map(probe[None, :4], stats, field_model, sched50, rng=RngStream(78, 0))


class TestAttentionMapType:
    """weight_from_attention accepts only (h, w, 1) attention maps with values in [1, 6]."""

    def test_range_enforced(self):
        for bad in (0.5, 6.5, np.nan):
            with pytest.raises(ValidationError, match=r"must lie in \[1.0, 6.0\]"):
                weight_from_attention(np.full((2, 2, 1), bad))
        with pytest.raises(ValidationError, match="single-channel"):
            weight_from_attention(np.full((2, 2, 3), 2.0))


class TestWeightFromAttention:
    def test_hand_values(self):
        vals = np.array([1.0, 3.5, 6.0]).reshape(1, 3, 1)
        m = weight_from_attention(vals)
        assert m.shape == (1, 3, 1)
        assert np.allclose(m.reshape(-1), [1.0, 0.25, 0.0], atol=1e-15)

    def test_monotone_nonincreasing(self):
        scores = np.linspace(1.0, 6.0, 64).reshape(8, 8, 1)
        m = weight_from_attention(scores).reshape(-1)
        assert np.all(np.diff(m) < 0)
