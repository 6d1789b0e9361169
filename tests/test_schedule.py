import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydiff import NoiseSchedule, ValidationError, build_schedule, linear_schedule, load_config

from conftest import DDPM_BETAS
from oracle_helpers import posterior_mean_coeffs


def test_single_step_schedule():
    s = linear_schedule(1, 0.5, 0.5)
    assert s.beta[1] == 0.5
    assert s.alpha_bar[1] == 0.5
    assert s.beta_tilde[1] == 0.0


def test_default_thousand_step_convention(tmp_path):
    # A config that names only T gets DDPM's 1000-step betas.
    path = tmp_path / "cfg.json"
    model = {"type": "gaussian_field", "height": 1, "width": 1}
    path.write_text(json.dumps({"schedule": {"T": 1000}, "model": model}))
    s = build_schedule(load_config(path))
    assert s.fingerprint() == linear_schedule(1000, *DDPM_BETAS).fingerprint()
    assert abs(s.alpha_bar[1] - 0.9999) < 1e-15
    assert 0.0 < s.alpha_bar[1000] < 0.001


def test_alpha_bar_zero_slot_is_one():
    s = linear_schedule(10, 0.01, 0.2)
    assert s.alpha_bar[0] == 1.0
    assert s.sqrt_alpha_bar[0] == 1.0
    assert s.sqrt_one_minus_alpha_bar[0] == 0.0


@pytest.mark.parametrize("T", [1, 50, 200, 1000])
def test_table_self_consistency(T):
    s = linear_schedule(T, *DDPM_BETAS)
    recomputed = s.alpha_bar[:-1] * s.alpha[1:]
    assert np.all(np.abs(s.alpha_bar[1:] - recomputed) < 1e-15)


@pytest.mark.parametrize(
    "T, start, end",
    [(1, 0.5, 0.5), (2, 1e-3, 0.2), (50, 1.2e-3, 0.24), (400, 1.25e-4, 0.025), (1000, 1e-4, 0.02)],
)
def test_step_tables_equal_their_scalar_expressions(T, start, end):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the padding slot must not compute 0/0
        s = linear_schedule(T, start, end)
    for t in range(1, T + 1):
        assert s.reverse_scale[t] == (1.0 - s.alpha[t]) / s.sqrt_one_minus_alpha_bar[t]
        assert s.sqrt_alpha[t] == np.sqrt(s.alpha[t])
        assert s.sqrt_beta[t] == np.sqrt(s.beta[t])
        assert s.sqrt_beta_tilde[t] == np.sqrt(s.beta_tilde[t])
    padding = (s.reverse_scale[0], s.sqrt_alpha[0], s.sqrt_beta[0], s.sqrt_beta_tilde[0])
    assert padding == (0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("T", [1, 50, 200, 1000])
def test_posterior_collapse_identity(T):
    # Substituting the zero-noise forward point x_t = sqrt(abar_t)*x0 into the
    # posterior mean gives sqrt(abar_{t-1})*x0; only at t=1 is that x0 itself.
    s = linear_schedule(T, *DDPM_BETAS)
    steps = sorted({1, max(1, T // 4), max(1, T // 2), max(1, 3 * T // 4), T})
    for t in steps:
        c0, ct = posterior_mean_coeffs(s, t)
        assert abs(c0 + ct * s.sqrt_alpha_bar[t] - s.sqrt_alpha_bar[t - 1]) < 1e-12


def test_posterior_collapses_onto_x0_at_final_step():
    s = linear_schedule(100, 1e-3, 0.2)
    c0, ct = posterior_mean_coeffs(s, 1)
    assert abs(c0 - 1.0) < 1e-12
    assert abs(ct) < 1e-12


def test_beta_tilde_bounds():
    s = linear_schedule(200, 3e-4, 0.06)
    assert s.beta_tilde[1] == 0.0
    assert np.all(s.beta_tilde[1:] >= 0.0)
    assert np.all(s.beta_tilde[1:] <= s.beta[1:] + 1e-18)


def test_alpha_bar_strictly_decreasing():
    s = linear_schedule(500, 1e-4, 0.04)
    assert np.all(np.diff(s.alpha_bar) < 0.0)
    assert s.alpha_bar[-1] > 0.0


def test_step_range_checks():
    s = linear_schedule(10, 0.01, 0.1)
    with pytest.raises(IndexError):
        posterior_mean_coeffs(s, 0)
    with pytest.raises(IndexError):
        posterior_mean_coeffs(s, 11)
    with pytest.raises(IndexError):
        s.check_step(-1, lowest=0)


def test_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        linear_schedule(0, 0.1, 0.2)
    with pytest.raises(ValidationError):
        linear_schedule(10, 0.0, 0.2)
    with pytest.raises(ValidationError):
        linear_schedule(10, 0.3, 0.2)
    with pytest.raises(ValidationError):
        linear_schedule(10, 0.5, 1.0)


def test_rejects_malformed_beta_table():
    with pytest.raises(ValidationError):
        NoiseSchedule(T=2, beta=np.array([0.1, 0.1, 0.2]))  # bad padding slot
    with pytest.raises(ValidationError):
        NoiseSchedule(T=3, beta=np.array([0.0, 0.1, 0.2]))  # wrong length


def test_fingerprint_tracks_content():
    a = linear_schedule(50, 1e-3, 0.2)
    b = linear_schedule(50, 1e-3, 0.2)
    c = linear_schedule(50, 1e-3, 0.21)
    d = linear_schedule(51, 1e-3, 0.2)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint() != d.fingerprint()


def test_schedule_keeps_its_own_copy_of_beta():
    b = np.array([0.0, 0.1, 0.2, 0.3])
    alias = b[:]  # another view of b's buffer, writable whatever b becomes
    s = NoiseSchedule(T=3, beta=b)
    assert b.flags.writeable and not np.shares_memory(b, s.beta)
    before = s.beta.tobytes(), s.alpha_bar.tobytes(), s.fingerprint()
    alias[1] = 0.9
    assert (s.beta.tobytes(), s.alpha_bar.tobytes(), s.fingerprint()) == before


@given(
    T=st.integers(1, 300),
    start=st.floats(1e-6, 0.4),
    spread=st.floats(0.0, 0.4),
)
@settings(max_examples=60, deadline=None)
def test_schedule_invariants_property(T, start, spread):
    s = linear_schedule(T, start, min(start + spread, 0.9))
    assert np.all((s.beta[1:] > 0) & (s.beta[1:] < 1))
    assert np.all(np.diff(s.beta[1:]) >= -1e-18)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] > 0
    assert s.beta_tilde[1] == 0.0
    assert np.all(s.beta_tilde <= s.beta + 1e-18)
    recomputed = s.alpha_bar[:-1] * s.alpha[1:]
    assert np.all(np.abs(s.alpha_bar[1:] - recomputed) < 1e-15)
