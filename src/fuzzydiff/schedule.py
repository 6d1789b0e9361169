"""Variance schedule for the diffusion process and derived per-step tables.

Index convention used across the package: diffusion steps are t in {1..T}
and every table carries a slot for t=0 so that alpha_bar[0] == 1 holds by
construction. beta[0], alpha[0] and beta_tilde[0] are padding (set to the
values a zero-step would have: beta 0, alpha 1, beta_tilde 0) and are never
read by samplers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, _f8, _frozen, _hash_parts

__all__ = ["NoiseSchedule", "linear_schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t and everything derived from them.

    All arrays have length T+1 and are indexed by t directly. Derived tables:

    - ``alpha[t] = 1 - beta[t]``
    - ``alpha_bar[t]`` = cumulative product of alpha, with ``alpha_bar[0] = 1``
    - ``beta_tilde[t]`` = posterior variance
      ``(1 - alpha_bar[t-1]) / (1 - alpha_bar[t]) * beta[t]``, which is 0
      exactly at t=1
    - per-step coefficients of the samplers, each equal bit for bit to its
      scalar expression at every t >= 1: ``reverse_scale[t] = (1 - alpha[t])
      / sqrt(1 - alpha_bar[t])`` (0 in the padding slot), ``sqrt_alpha``,
      ``sqrt_beta`` and ``sqrt_beta_tilde``
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    beta_tilde: np.ndarray = field(init=False)
    sqrt_alpha_bar: np.ndarray = field(init=False)
    sqrt_one_minus_alpha_bar: np.ndarray = field(init=False)
    reverse_scale: np.ndarray = field(init=False)
    sqrt_alpha: np.ndarray = field(init=False)
    sqrt_beta: np.ndarray = field(init=False)
    sqrt_beta_tilde: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        T = self.T
        if T < 1:
            raise ValidationError(f"T must be >= 1, got {T}")
        beta = _frozen(self.beta)  # a copy: no write by the caller can reach it
        if beta.shape != (T + 1,):
            raise ValidationError(f"beta must have shape ({T + 1},) with padding slot 0")
        if beta[0] != 0.0:
            raise ValidationError("beta[0] is a padding slot and must be 0")
        body = beta[1:]
        if not np.all((body > 0.0) & (body < 1.0)):
            raise ValidationError("every beta_t must lie in (0, 1)")

        alpha = 1.0 - beta
        alpha[0] = 1.0
        alpha_bar = np.cumprod(alpha)
        if alpha_bar[T] <= 0.0:
            raise ValidationError("alpha_bar underflowed to 0; schedule too aggressive for T")
        if not np.all(np.diff(alpha_bar[0:]) < 0.0):
            # alpha_bar[0]=1 > alpha_bar[1] since beta_1 > 0; strict decrease after.
            raise ValidationError("alpha_bar must be strictly decreasing")

        beta_tilde = np.zeros(T + 1)
        beta_tilde[1:] = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * beta[1:]
        beta_tilde[1] = 0.0  # exact: 1 - alpha_bar[0] == 0

        sqrt_one_minus_alpha_bar = np.sqrt(1.0 - alpha_bar)
        reverse_scale = np.zeros(T + 1)  # slot 0 would be 0/0
        reverse_scale[1:] = (1.0 - alpha[1:]) / sqrt_one_minus_alpha_bar[1:]

        tables = {
            "beta": beta,
            "alpha": alpha,
            "alpha_bar": alpha_bar,
            "beta_tilde": beta_tilde,
            "sqrt_alpha_bar": np.sqrt(alpha_bar),
            "sqrt_one_minus_alpha_bar": sqrt_one_minus_alpha_bar,
            "reverse_scale": reverse_scale,
            "sqrt_alpha": np.sqrt(alpha),
            "sqrt_beta": np.sqrt(beta),
            "sqrt_beta_tilde": np.sqrt(beta_tilde),
        }
        for name, table in tables.items():  # beta's copy and fresh tables, frozen in place
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def check_step(self, t: int, lowest: int = 1) -> int:
        """Validate ``lowest <= t <= T`` and return t as int."""
        t = int(t)
        if not lowest <= t <= self.T:
            raise IndexError(f"step t={t} outside [{lowest}, {self.T}]")
        return t

    def fingerprint(self) -> str:
        """Content hash used to detect stale cached statistics."""
        return _hash_parts(b"schedule/v1", struct.pack("<Q", self.T), _f8(self.beta[1:]))


def linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule with beta interpolated linearly from beta_start (t=1) to beta_end (t=T).

    The config's schedule defaults, 1e-4 to 0.02, are the common convention
    for T=1000 steps. When running at reduced T, scale the endpoints
    accordingly or alpha_bar[T] will not come close to 0.
    """
    T = int(T)
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    beta_start = float(beta_start)
    beta_end = float(beta_end)
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValidationError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    beta = np.zeros(T + 1)
    beta[1:] = np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(T=T, beta=beta)
