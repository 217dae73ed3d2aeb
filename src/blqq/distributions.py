"""Distribution primitives used by the sampler.

Only the handful of densities and samplers the Gibbs/MH engine actually needs
live here; everything is built on numpy's Generator and scipy.special so the
numerics (normal log-CDF, log-scale branches) are solid in the tails.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

# Standardized truncation point beyond which the inverse-CDF method is
# swapped for exponential-proposal rejection (tail-exact).
_TAIL_SWITCH = 5.0
_TINY = float(np.finfo(float).tiny)


def std_normal_log_cdf(x):
    """log Phi(x); stays finite far into the left tail (no underflow to log 0)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("std_normal_log_cdf requires finite input")
    out = special.log_ndtr(x)
    return float(out) if out.ndim == 0 else out


def _trunc_std_lower(alpha: float, uni: float, gen: np.random.Generator) -> float:
    """One draw of a standard normal conditioned on being >= alpha.

    uni is a uniform on [0, 1) that the inverse-CDF branch consumes; gen
    replaces it if it is exactly 0 and supplies the variates of the tail
    branch, which leaves uni unused.
    """
    if alpha < _TAIL_SWITCH:
        # Inverse-CDF on the upper-tail mass; ndtri is well conditioned near 0.
        # The casts keep numpy scalars out of the caller's float arithmetic.
        q = float(special.ndtr(-alpha))
        while uni <= 0.0:
            uni = gen.random()
        return -float(special.ndtri(uni * q))
    # Robert (1995) shifted-exponential rejection for the far tail, which
    # would never accept at a truncation point of nan or inf.
    if not alpha < math.inf:
        raise FloatingPointError(f"truncation point {alpha} is not finite")
    lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
    while True:
        x = alpha + gen.exponential(1.0 / lam)
        diff = x - lam
        if gen.random() <= math.exp(-0.5 * diff * diff):
            return x


def _draw_halfline(m: float, v: float, nonnegative: bool, uni: float,
                   gen: np.random.Generator) -> float:
    """One draw of N(m, v) restricted to [0, inf), or to (-inf, 0) when
    nonnegative is False, from the uniform uni (see _trunc_std_lower); the
    latent sweep calls this once per observation."""
    sd = math.sqrt(v)
    if nonnegative:
        return m + sd * _trunc_std_lower(-m / sd, uni, gen)
    # Mirror: X < 0 under N(m, v) <=> -X >= 0 under N(-m, v), and we nudge an
    # (measure-zero) exact 0 into the open half-line.
    val = m - sd * _trunc_std_lower(m / sd, uni, gen)
    return val if val < 0.0 else -_TINY


def sample_scaled_inv_chi2(dof, scale, gen: np.random.Generator, size=None):
    """Scaled inverse-chi-square draw: dof*scale / chisq(dof)."""
    if dof <= 0 or scale <= 0:
        raise ValueError("dof and scale must be positive")
    q = gen.chisquare(dof, size=size)
    return dof * scale / q


def inverse_mills(a):
    """phi(a) / Phi(a), computed via the scaled complementary error function
    so it neither under- nor overflows in either tail."""
    a = np.asarray(a, dtype=float)
    out = math.sqrt(2.0 / math.pi) / special.erfcx(-a / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out

