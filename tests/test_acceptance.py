"""End-to-end acceptance checks against the analytic oracles.

Each criterion runs at fixed seeds and pinned tolerances and reports one
[PASS]/[FAIL] line in the terminal summary. Distributional thresholds were
frozen after a calibration run of the same seeds; the margins observed there
are noted inline.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fuzzydiff import (
    DegradeParams,
    GaussianFieldModel,
    GmmPixelModel,
    Grid,
    RngStream,
    attention_map,
    degrade,
    fuzzy_sample,
    linear_schedule,
    pixel_auc,
    run_correction_experiment,
    validation_stats,
    write_grid,
)
from fuzzydiff.cli import entrypoint
from fuzzydiff.config import load_config, section
from fuzzydiff.sampler import ancestral_sample_array

from conftest import DDPM_BETAS, exp_field, two_mode
from oracle_helpers import fuse, ks_critical, ks_two_sample, moment_error, posterior_mean_coeffs

SEED = 20260816

FIELD_SCHED = (200, 3.0e-4, 0.06)
GMM_SCHED = (400, 1.25e-4, 0.025)


@contextmanager
def criterion(lines, number, text):
    try:
        yield
    except BaseException:
        lines.append(f"[FAIL] criterion {number}: {text}")
        raise
    lines.append(f"[PASS] criterion {number}: {text}")


def field_model():
    return exp_field()


def gmm_model():
    return two_mode()


def test_criterion_1_schedule_algebra(acceptance_lines):
    with criterion(
        acceptance_lines,
        1,
        "schedule tables self-consistent; posterior mean collapses to the "
        "zero-noise point (tol 1e-12)",
    ):
        for T in (1, 50, 200, 1000):
            s = linear_schedule(T, *DDPM_BETAS)
            assert np.abs(s.alpha[1:] - (1.0 - s.beta[1:])).max() < 1e-15
            assert np.abs(s.alpha_bar - np.cumprod(s.alpha)).max() < 1e-12
            want_bt = (1.0 - s.alpha_bar[:-1]) / (1.0 - s.alpha_bar[1:]) * s.beta[1:]
            assert np.abs(s.beta_tilde[1:] - want_bt).max() < 1e-15
            # At x_t = sqrt(alpha_bar_t) x0 the posterior mean lands on the
            # zero-noise point of step t-1, which is x0 itself once t = 1.
            steps = sorted({1, max(1, T // 4), max(1, T // 2), T})
            for t in steps:
                c0, ct = posterior_mean_coeffs(s, t)
                collapsed = c0 + ct * s.sqrt_alpha_bar[t]
                assert abs(collapsed - s.sqrt_alpha_bar[t - 1]) < 1e-12
            c0, ct = posterior_mean_coeffs(s, 1)
            assert abs(c0 + ct * s.sqrt_alpha_bar[1] - 1.0) < 1e-12


def _fd_relative_error(model, s, coords, steps, rng):
    """Worst relative gap between predicted noise and the finite-difference
    score direction, probing one coordinate at a time."""
    h = 3e-5
    worst = 0.0
    for t in steps:
        x = rng.normals(len(coords)) * 0.3 + 0.5
        rows = np.broadcast_to(model.moments()[0], (len(coords), model.dim)).copy()
        for i, c in enumerate(coords):
            rows[i, c] = x[i]
        eps = model.predict_array(rows, t, s)
        for i, c in enumerate(coords):
            up = rows[i : i + 1].copy()
            up[0, c] += h
            dn = rows[i : i + 1].copy()
            dn[0, c] -= h
            grad = (
                model.log_marginal_array(up, t, s) - model.log_marginal_array(dn, t, s)
            )[0] / (2 * h)
            want = -s.sqrt_one_minus_alpha_bar[t] * grad
            worst = max(worst, abs(eps[i, c] - want) / max(abs(want), 1e-12))
    return worst


def test_criterion_2_score_oracle(acceptance_lines):
    with criterion(
        acceptance_lines,
        2,
        "noise prediction matches the finite-difference score of the log "
        "marginal (rel err < 1e-5)",
    ):
        s = linear_schedule(*FIELD_SCHED)
        steps = [20, 100, 180]
        rng = RngStream(SEED, 2)
        coords = sorted(set(int(u * 64) for u in rng.uniforms(8)))[:5]
        scalar_field = GaussianFieldModel((1, 1, 1), 0.5, np.array([[0.04]]))
        scalar_gmm = GmmPixelModel(
            (1, 1, 1),
            np.array([0.5, 0.5]),
            np.array([0.25, 0.75]),
            np.array([0.005, 0.005]),
        )
        assert _fd_relative_error(scalar_field, s, [0], steps, rng.child(0)) < 1e-5
        assert _fd_relative_error(scalar_gmm, s, [0], steps, rng.child(1)) < 1e-5
        assert _fd_relative_error(field_model(), s, coords, steps, rng.child(2)) < 1e-5


def test_criterion_3_unconditional_fidelity(acceptance_lines):
    with criterion(
        acceptance_lines,
        3,
        "unconditional chain matches oracle moments (field: mean within 4 SE, "
        "cov rel Frobenius < 0.1) and per-pixel KS vs direct mixture draws "
        "(family alpha 0.01)",
    ):
        root = RngStream(SEED, 3)
        field = field_model()
        s200 = linear_schedule(*FIELD_SCHED)
        n = 5000
        rows = ancestral_sample_array(field, s200, n, root.child(0))
        se4 = 4 * field.marginal_std() / np.sqrt(n)
        assert np.abs(rows.mean(axis=0) - 0.5).max() < se4  # measured 0.0050
        _, cov_err = moment_error(rows, field)
        assert cov_err < 0.1  # measured 0.078

        gmm = gmm_model()
        s400 = linear_schedule(*GMM_SCHED)
        chain = ancestral_sample_array(gmm, s400, n, root.child(1))
        direct = gmm.sample_x0(n, root.child(2))
        # 64 simultaneous per-pixel tests; Bonferroni keeps the family level.
        crit = ks_critical(n, n, alpha=0.01 / 64)
        worst = max(ks_two_sample(chain[:, i], direct[:, i]) for i in range(64))
        assert worst < crit  # measured 0.0382 vs 0.0435


def test_criterion_4_fuzzy_boundaries(acceptance_lines):
    with criterion(
        acceptance_lines,
        4,
        "full conditioning reproduces the input bit-exactly; zero "
        "conditioning matches unconditional sampling (pooled KS, alpha 0.01)",
    ):
        root = RngStream(SEED, 4)
        gmm = gmm_model()
        s400 = linear_schedule(*GMM_SCHED)

        x_cond = gmm.sample_x0(1, root.child(0))[0].reshape(8, 8, 1)
        out = fuzzy_sample(gmm, s400, x_cond, 1.0, 2, 1, root.child(3))
        assert np.array_equal(out.reshape(8, 8, 1), x_cond)
        field = field_model()
        s200 = linear_schedule(*FIELD_SCHED)
        x_cond_f = field.sample_x0(1, root.child(4))[0].reshape(8, 8, 1)
        out = fuzzy_sample(field, s200, x_cond_f, 1.0, 2, 1, root.child(5))
        assert np.array_equal(out.reshape(8, 8, 1), x_cond_f)

        # 32 mixture samples x 64 pixels = 2048-pixel pools per side; pixels
        # are iid under this oracle, so pooling is legitimate.
        fuzzy_rows = fuzzy_sample(
            gmm, s400, x_cond, np.zeros((8, 8, 1)), 2, 32, root.child(1)
        ).reshape(-1)
        plain_rows = ancestral_sample_array(gmm, s400, 32, root.child(2)).reshape(-1)
        d = ks_two_sample(fuzzy_rows, plain_rows)
        assert d < ks_critical(fuzzy_rows.size, plain_rows.size, alpha=0.01)
        # measured 0.026 vs 0.051


def test_criterion_5_fusion_variance(acceptance_lines):
    with criterion(
        acceptance_lines,
        5,
        "fusion preserves the step t-1 marginal variance within 2% for "
        "m in {0.1..0.9} (1e5 draws each)",
    ):
        s = linear_schedule(*FIELD_SCHED)
        root = RngStream(SEED, 5)
        t = 100
        v = 1.0 - s.alpha_bar[t - 1]
        n = 100_000
        base = s.sqrt_alpha_bar[t - 1] * 0.7
        x_cond = np.full((n, 1, 1), 0.7)
        for k, m in enumerate(np.arange(0.1, 0.95, 0.1)):
            r = root.child(k)
            xs = base + np.sqrt(v) * r.normals(n).reshape(n, 1, 1)
            xr = base + np.sqrt(v) * r.normals(n).reshape(n, 1, 1)
            out = fuse(xs, xr, x_cond, float(m), t, s)
            assert abs(out.var() / v - 1.0) < 0.02  # measured max 0.011


def test_criterion_6_conditioning_monotonicity(acceptance_lines):
    with criterion(
        acceptance_lines,
        6,
        "mean distance to the conditioning image strictly decreases across "
        "uniform m in {0, 0.25, 0.5, 0.75, 1} (500 samples each)",
    ):
        field = field_model()
        s = linear_schedule(*FIELD_SCHED)
        root = RngStream(SEED, 6)
        x_cond = field.sample_x0(1, root.child(0))[0]
        dists = []
        for k, m in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            rows = fuzzy_sample(
                field, s, x_cond.reshape(8, 8, 1), np.full((8, 8, 1), m), 2, 500, root.child(1 + k)
            )
            dists.append(float(np.linalg.norm(rows - x_cond, axis=1).mean()))
        # measured: 2.41 > 0.89 > 0.20 > 0.050 > 0
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] == 0.0


def test_criterion_7_attention_detection(acceptance_lines):
    with criterion(
        acceptance_lines,
        7,
        "attention detects out-of-range rectangles (median AUC >= 0.8, "
        "inside-outside score gap >= 1.0) and stays quiet on clean inputs "
        "(>= 95% of pixels at A <= 2)",
    ):
        field = field_model()
        s = linear_schedule(*FIELD_SCHED)
        root = RngStream(SEED, 7)
        V = field.sample_x0(1000, root.child(0))
        stats = validation_stats(field, s, V, [60, 80, 100, 120], reps=1, rng=root.child(1))
        params = DegradeParams.for_model(field, 4.0, 8.0, None, None)

        aucs, gaps = [], []
        for i in range(20):
            tr = root.child(2 + i)
            clean = field.sample_x0(1, tr.child(0))[0].reshape(8, 8, 1)
            degraded, record = degrade(clean, params, tr.child(1))
            [amap] = attention_map(degraded[None], stats, field, s, rng=tr.child(2))
            aucs.append(pixel_auc(amap, record.mask))
            inside = record.mask[:, :, 0] == 1.0
            scores = amap[:, :, 0]
            gaps.append(scores[inside].mean() - scores[~inside].mean())
        assert np.median(aucs) >= 0.8  # measured 1.0
        assert np.median(gaps) >= 1.0  # measured 4.43

        fracs = []
        for i in range(20):
            tr = root.child(100 + i)
            probe = field.sample_x0(1, tr.child(0))[0].reshape(8, 8, 1)
            [amap] = attention_map(probe[None], stats, field, s, rng=tr.child(1))
            fracs.append(float((amap <= 2.0).mean()))
        assert np.mean(fracs) >= 0.95  # measured 0.988


def test_criterion_8_autonomous_correction(acceptance_lines, tmp_path):
    with criterion(
        acceptance_lines,
        8,
        "correction repairs masked damage (median MSE reduction >= 50%), "
        "keeps clean regions within the oracle's own variance, and beats the "
        "plain projection baseline on clean-region fidelity in >= 15/20 trials",
    ):
        field = field_model()
        s = linear_schedule(*FIELD_SCHED)
        # The eval defaults of a loaded config with no eval section.
        T, beta_start, beta_end = FIELD_SCHED
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schedule": {"T": T, "beta_start": beta_start, "beta_end": beta_end},
            "model": {"type": "gaussian_field", "height": 8, "width": 8},
        }))
        cfg = dict(section(load_config(config), "eval"), trials=20, J=2, v_count=400)
        report = run_correction_experiment(field, s, cfg, RngStream(SEED, 8), None)
        agg = report["aggregates"]
        assert agg["median_masked_reduction"] >= 0.5  # measured 0.966
        assert agg["median_mse_out_corrected"] <= agg["oracle_marginal_variance"]
        # measured 7.9e-06 vs 0.04
        assert agg["unmasked_wins_vs_baseline"] >= 15  # measured 20
        assert agg["unmasked_comparisons"] == 20


def _run_cli(*argv):
    return entrypoint([str(a) for a in argv])


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_cli_determinism(acceptance_lines, tmp_path):
    with criterion(
        acceptance_lines,
        9,
        "every CLI subcommand writes byte-identical artifacts on rerun with "
        "the same config and seed, for any --workers; sample and fuzzy rows "
        "do not depend on the count",
    ):
        cfg_path = tmp_path / "cfg.json"
        image = tmp_path / "image.fdg"
        write_grid(image, Grid(np.full((4, 4, 1), 0.5)))
        stats_dir = tmp_path / "stats_out" / "stats"
        payload = {
            "schedule": {"T": 6},
            "model": {
                "type": "gmm_pixel",
                "height": 4,
                "width": 4,
                "weights": [0.6, 0.4],
                "means": [0.3, 0.7],
                "variances": [0.01, 0.01],
            },
            "sample": {"count": 3},
            "fuzzy": {"image": str(image), "map": 0.5, "count": 2, "J": 2},
            "stats": {"v_count": 5, "depths": [2, 4]},
            "attend": {"image": str(image), "stats_dir": str(stats_dir)},
            "degrade": {},
            "eval": {"trials": 2, "J": 1, "v_count": 4, "depths": [2, 3]},
        }
        cfg_path.write_text(json.dumps(payload))

        # stats must run first so attend has a directory to read.
        assert _run_cli("stats", "--config", cfg_path, "--out", tmp_path / "stats_out") == 0
        for command in ("sample", "fuzzy", "attend", "degrade", "eval", "stats"):
            out = tmp_path / f"{command}_run"
            args = ["--config", cfg_path, "--out", out, "--seed", 11]
            assert _run_cli(command, *args) == 0
            first = _tree_bytes(out)
            assert _run_cli(command, *args, "--force") == 0
            assert _tree_bytes(out) == first, f"{command} rerun changed bytes"
            if command in ("sample", "fuzzy"):
                alt = tmp_path / f"{command}_workers"
                assert (
                    _run_cli(
                        command, "--config", cfg_path, "--out", alt, "--seed", 11,
                        "--workers", 4,
                    )
                    == 0
                )
                assert _tree_bytes(alt) == first, f"{command} workers changed bytes"

        # Count 1025 is above the GMM kernel's 1024-row block at D = 16 and
        # cuts RowStreams' read-ahead to 1 draw (682 and 1024 at counts 3
        # and 2); the first rows keep the bytes of the config's own counts.
        payload["sample"]["count"] = payload["fuzzy"]["count"] = 1025
        cfg_path.write_text(json.dumps(payload))
        for command, count in (("sample", 3), ("fuzzy", 2)):
            out = tmp_path / f"{command}_1025"
            assert _run_cli(command, "--config", cfg_path, "--out", out, "--seed", 11) == 0
            many, few = _tree_bytes(out), _tree_bytes(tmp_path / f"{command}_run")
            names = [f"{command}_{i:04d}.{ext}" for i in range(count) for ext in ("fdg", "pgm")]
            assert [many[n] for n in names] == [few[n] for n in names], f"{command} count"
