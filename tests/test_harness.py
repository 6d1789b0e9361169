import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sps

from fuzzydiff import (
    DegradeParams,
    GaussianFieldModel,
    RngStream,
    ValidationError,
    degrade,
    linear_schedule,
    masked_mse,
    pixel_auc,
    run_correction_experiment,
)
from fuzzydiff.config import load_config, section
from fuzzydiff.harness import _median

from oracle_helpers import ks_critical, ks_two_sample, moment_error


def mean_image(model):
    return model.moments()[0].reshape(model.shape)


class TestDegradeParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DegradeParams(-1, 2, 0.0, 1.0)
        with pytest.raises(ValidationError):
            DegradeParams(3, 2, 0.0, 1.0)
        with pytest.raises(ValidationError):
            DegradeParams(1, 2, 1.0, 0.5)

    def test_for_model_defaults(self, field_model):
        p = DegradeParams.for_model(field_model, 4.0, 8.0, None, None)
        assert p.side_min == 2
        assert p.side_max == 4
        assert abs(p.threshold_low - (0.5 + 4 * 0.2)) < 1e-12
        assert abs(p.threshold_high - (0.5 + 8 * 0.2)) < 1e-12


class TestDegrade:
    def test_zero_area_is_identity(self, field_model):
        x = mean_image(field_model)
        params = DegradeParams(0, 0, 5.0, 5.0)
        out, record = degrade(x, params, RngStream(1, 0))
        assert np.array_equal(out, x)
        assert record.area == 0
        assert record.mask.shape == (8, 8, 1)
        assert np.all(record.mask == 0.0)

    def test_rectangle_contents_and_bounds(self, field_model):
        x = field_model.sample_x0(1, RngStream(2, 0))[0].reshape(8, 8, 1)
        params = DegradeParams.for_model(field_model, 4.0, 8.0, None, None)
        rng = RngStream(3, 0)
        for _ in range(300):
            out, record = degrade(x, params, rng)
            x0, y0, x1, y1 = record.rect
            assert 0 <= x0 < x1 <= 8 and 0 <= y0 < y1 <= 8
            assert params.side_min <= x1 - x0 <= params.side_max
            assert params.side_min <= y1 - y0 <= params.side_max
            assert params.threshold_low <= record.threshold <= params.threshold_high
            inside = record.mask[:, :, 0] == 1.0
            assert inside.sum() == record.area
            assert np.all(out[inside] == record.threshold)
            assert np.array_equal(out[~inside], x[~inside])

    def test_multichannel_sets_all_channels(self):
        x = np.zeros((6, 6, 3))
        out, record = degrade(x, DegradeParams(2, 2, 9.0, 9.0), RngStream(4, 0))
        inside = record.mask[:, :, 0] == 1.0
        assert np.all(out[inside] == 9.0)
        assert out[inside].shape == (4, 3)
        assert np.all(x == 0.0)  # the input is not modified

    def test_oversized_side_rejected(self, field_model):
        with pytest.raises(ValidationError):
            degrade(mean_image(field_model), DegradeParams(2, 9, 0.0, 1.0), RngStream(0, 0))

    def test_deterministic(self, field_model):
        x = mean_image(field_model)
        params = DegradeParams.for_model(field_model, 4.0, 8.0, None, None)
        a = degrade(x, params, RngStream(5, 7))
        b = degrade(x, params, RngStream(5, 7))
        assert np.array_equal(a[0], b[0])
        assert a[1].rect == b[1].rect
        assert a[1].threshold == b[1].threshold


class TestKs:
    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_samples(self):
        assert ks_two_sample([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_hand_value(self):
        assert abs(ks_two_sample([1.0, 2.0, 3.0, 4.0], [2.5]) - 0.5) < 1e-15

    def test_matches_scipy(self):
        rng = RngStream(11, 0)
        for k in range(5):
            a = rng.normals(200 + 17 * k)
            b = rng.normals(150) * 1.2 + 0.1 * k
            want = sps.ks_2samp(a, b, method="asymp").statistic
            assert abs(ks_two_sample(a, b) - want) < 1e-12
        # Heavy ties via quantization.
        a = np.round(rng.normals(300), 1)
        b = np.round(rng.normals(280), 1)
        want = sps.ks_2samp(a, b, method="asymp").statistic
        assert abs(ks_two_sample(a, b) - want) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_two_sample([], [1.0])

    def test_critical_value(self):
        c = math.sqrt(-0.5 * math.log(0.005))
        assert abs(ks_critical(100, 100, alpha=0.01) - c * math.sqrt(2 / 100)) < 1e-12
        assert ks_critical(50, 200) < ks_critical(50, 50)
        with pytest.raises(ValidationError):
            ks_critical(0, 10)
        with pytest.raises(ValidationError):
            ks_critical(10, 10, alpha=1.5)


class TestMomentError:
    def test_exact_draws_land_near_zero(self, field_model):
        rows = field_model.sample_x0(5000, RngStream(12, 0))
        mean_err, cov_err = moment_error(rows, field_model)
        assert mean_err < 0.02
        assert cov_err < 0.1

    def test_mean_shift_detected(self, field_model):
        rows = field_model.sample_x0(500, RngStream(13, 0)) + 10.0
        mean_err, _ = moment_error(rows, field_model)
        assert mean_err > 9.5

    def test_validation(self, field_model):
        with pytest.raises(ValidationError):
            moment_error(field_model.sample_x0(1, RngStream(0, 0)), field_model)
        with pytest.raises(ValidationError):
            moment_error(np.zeros((5, 3)), field_model)
        with pytest.raises(ValidationError):
            moment_error(np.zeros(64), field_model)


class TestPixelAuc:
    def grid(self, rows):
        return np.asarray(rows, dtype=np.float64)[:, :, None]

    def test_perfect_separation(self):
        score = self.grid([[0.9, 0.1], [0.5, 0.2]])
        mask = self.grid([[1.0, 0.0], [1.0, 0.0]])
        assert pixel_auc(score, mask) == 1.0

    def test_constant_scores_give_half(self):
        score = self.grid([[0.3, 0.3], [0.3, 0.3]])
        mask = self.grid([[1.0, 0.0], [1.0, 0.0]])
        assert pixel_auc(score, mask) == 0.5

    def test_hand_value(self):
        score = self.grid([[0.9, 0.5], [0.2, 0.1]])
        mask = self.grid([[1.0, 0.0], [1.0, 0.0]])
        assert abs(pixel_auc(score, mask) - 0.75) < 1e-15

    def test_matches_rank_formula(self):
        rng = RngStream(15, 0)
        for _ in range(50):
            sc = np.round(rng.normals(64), 1).reshape(8, 8, 1)
            mk = (rng.uniforms(64) < 0.3).astype(np.float64).reshape(8, 8, 1)
            if mk.sum() in (0, 64):
                continue
            ranks = sps.rankdata(sc.reshape(-1))
            pos = mk.reshape(-1) == 1.0
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            want = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
            assert abs(pixel_auc(sc, mk) - want) < 1e-12

    def test_validation(self):
        score = self.grid([[0.1, 0.2]])
        with pytest.raises(ValidationError):
            pixel_auc(score, self.grid([[0.5, 1.0]]))
        with pytest.raises(ValidationError):
            pixel_auc(score, self.grid([[1.0, 1.0]]))
        with pytest.raises(ValidationError):
            pixel_auc(score, np.zeros((2, 2, 1)))


class TestMaskedMse:
    def test_hand_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        b = np.array([[1.0, 0.0], [3.0, 1.0]]).reshape(2, 2, 1)
        mask = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(2, 2, 1)
        assert masked_mse(a, b, mask, inside=True) == pytest.approx((4.0 + 9.0) / 2)
        assert masked_mse(a, b, mask, inside=False) == 0.0

    def test_empty_region_returns_none(self):
        a = np.zeros((2, 2, 1))
        mask = np.ones((2, 2, 1))
        assert masked_mse(a, a, mask, inside=False) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            masked_mse(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), np.zeros((2, 2, 1)))


class TestMedian:
    """The report's medians give ``np.median``'s bytes without calling it."""

    @staticmethod
    def numpy_median(values):
        with np.errstate(over="ignore"):  # an even count near the top overflows
            return float(np.median([v for v in values if v is not None]))

    def test_matches_numpy_with_ties_and_none(self):
        rng = np.random.default_rng(30)
        for n in range(1, 42):
            for _ in range(4):
                ties = rng.choice([0.0, 0.25, 1.5, 3.0], n)
                values = np.where(rng.random(n) < 0.5, ties, rng.normal(0.0, 2.0, n)).tolist()
                for i in rng.integers(0, n + 1, 3):
                    values.insert(int(i), None)
                assert _median(values).hex() == self.numpy_median(values).hex(), values

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    def test_matches_numpy_near_overflow(self, n):
        top = np.linspace(1.6e308, 1.79e308, n).tolist()
        for values in (top, [-v for v in top], top + [None]):
            assert _median(values).hex() == self.numpy_median(values).hex(), values
            assert math.isinf(_median(values)) == (n % 2 == 0)

    def test_no_values_give_none(self):
        assert _median([None, None, None]) is None
        assert _median([]) is None


@functools.cache
def _minimal_config(T: int) -> dict:
    """A loaded config on the default 8x8 field at T steps, with no eval section."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        model = {"type": "gaussian_field", "height": 8, "width": 8}
        path.write_text(json.dumps({"schedule": {"T": T}, "model": model}))
        return load_config(path)


def eval_section(T: int = 50, **kw) -> dict:
    """The eval config section of a T-step config: its defaults, overridden by kw."""
    return dict(section(_minimal_config(T), "eval"), **kw)


class TestExperimentConfig:
    def run(self, model, s, trials=1, **kw):
        cfg = eval_section(s.T, trials=trials, v_count=4, **kw)
        return run_correction_experiment(model, s, cfg, RngStream(98, 0), None)

    def test_default_depths_and_baseline(self, field_model, sched50):
        echo = self.run(field_model, sched50)["config"]
        assert echo["depths"] == [15, 20, 25, 30]
        assert echo["baseline_depth"] == 20
        assert echo["schedule_T"] == 50
        assert "record_artifacts" not in echo

    def test_tiny_schedule_deduplicates(self, field_model):
        report = self.run(field_model, linear_schedule(3, 0.01, 0.02))
        assert report["config"]["depths"] == [1, 2]

    def test_side_overrides_flow_into_params(self, field_model, sched50):
        # The 8x8 default sides are [2, 4], so a side of 1 shows the override.
        report = self.run(field_model, sched50, trials=8, side_min=1, side_max=2)
        assert (report["config"]["side_min"], report["config"]["side_max"]) == (1, 2)
        sides = []
        for trial in report["trials"]:
            x0, y0, x1, y1 = trial["degradation"]["rect"]
            sides += [x1 - x0, y1 - y0]
        assert set(sides) == {1, 2}


class TestRunExperiment:
    def small_config(self, trials=3, **kw):
        return eval_section(trials=trials, J=1, depths=[10, 20], v_count=24, baseline_depth=15, **kw)

    def test_report_schema_and_determinism(self, field_model, sched50):
        cfg = self.small_config()
        a = run_correction_experiment(field_model, sched50, cfg, RngStream(99, 0), None)
        b = run_correction_experiment(field_model, sched50, cfg, RngStream(99, 0), None)
        assert a == b
        assert a["schema_version"] == 1
        assert len(a["trials"]) == 3
        for t in a["trials"]:
            assert 0.0 <= t["auc"] <= 1.0
            assert t["mse_in_degraded"] > 0.0
            assert 0.0 <= t["mean_weight"] <= 1.0
            assert t["degradation"]["area"] > 0
        agg = a["aggregates"]
        assert agg["unmasked_comparisons"] == 3
        assert agg["oracle_marginal_variance"] == pytest.approx(0.04)
        assert agg["median_auc"] is not None

    def test_degradation_disabled_fixed_point(self, field_model, sched50):
        # Sides of 0 draw empty rectangles, so nothing is degraded.
        cfg = self.small_config(side_min=0, side_max=0)
        report = run_correction_experiment(field_model, sched50, cfg, RngStream(100, 0), None)
        for t in report["trials"]:
            assert t["degradation"]["area"] == 0
            assert t["auc"] is None
            assert t["mse_in_degraded"] is None
            assert t["mse_out_corrected"] == t["mse_total_corrected"]
            assert t["mean_weight"] > 0.75
        agg = report["aggregates"]
        assert agg["median_auc"] is None
        assert agg["median_masked_reduction"] is None
        assert agg["median_mse_total_corrected"] < 0.04

    def test_artifacts_written(self, field_model, sched50, tmp_path):
        art = tmp_path / "artifacts"
        cfg = self.small_config(trials=1)
        run_correction_experiment(field_model, sched50, cfg, RngStream(101, 0), art)
        names = sorted(p.name for p in art.iterdir())
        assert names == [
            "trial_000_attention.fdg",
            "trial_000_baseline.fdg",
            "trial_000_clean.fdg",
            "trial_000_corrected.fdg",
            "trial_000_degraded.fdg",
            "trial_000_weights.fdg",
        ]

    def test_artifacts_require_directory(self, field_model, sched50, tmp_path, monkeypatch):
        # Without artifacts_dir the experiment writes nothing at all.
        monkeypatch.chdir(tmp_path)
        cfg = self.small_config(trials=1, record_artifacts=True)
        run_correction_experiment(field_model, sched50, cfg, RngStream(0, 0), None)
        assert list(tmp_path.iterdir()) == []

    def test_report_save_roundtrip(self, field_model, sched50):
        cfg = self.small_config(trials=1)
        report = run_correction_experiment(field_model, sched50, cfg, RngStream(102, 0), None)
        assert json.loads(json.dumps(report, sort_keys=True, indent=2)) == report
