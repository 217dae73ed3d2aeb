"""Distribution primitives used by the sampler.

Only the handful of densities and samplers the Gibbs/MH engine actually needs
live here; they are built on numpy's Generator and scipy.special so the
numerics (normal log-CDF, log-scale branches) are solid in the tails. The
sweep's scalar half-line draw uses the math and statistics modules instead,
whose C functions cost less per call; its array form, which draws a whole
latent vector at once, runs the same formula on scipy.special.
"""
from __future__ import annotations

import math
import statistics

import numpy as np
from scipy import special

# Standardized truncation point beyond which the inverse-CDF method is
# swapped for exponential-proposal rejection (tail-exact).
_TAIL_SWITCH = 5.0
_TINY = float(np.finfo(float).tiny)
_SQRT2 = math.sqrt(2.0)
_NDTRI = statistics._normal_dist_inv_cdf      # (p, mu, sigma), no range check


def _pow2_scaled(x, axis=None):
    """(2^-k x, k), k the binary exponent of max|x| (an int), or with axis=0
    of each column's max|x| (an int array), 0 where that max is 0. Scaling by
    a power of two is exact for normal floats, and every |2^-k x_i| < 1, so no
    product of the scaled values overflows and small values' squares do not
    underflow."""
    amax = np.abs(x).max(axis=axis)
    k = math.frexp(amax)[1] if axis is None else np.frexp(amax)[1]
    return np.ldexp(x, -k), k


def std_normal_log_cdf(x):
    """log Phi(x); stays finite far into the left tail (no underflow to log 0)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("std_normal_log_cdf requires finite input")
    out = special.log_ndtr(x)
    return float(out) if out.ndim == 0 else out


def _trunc_std_lower(alpha: float, gen: np.random.Generator) -> float:
    """One draw of a standard normal conditioned on being >= alpha, for
    alpha >= _TAIL_SWITCH, by Robert (1995) shifted-exponential rejection with
    variates from gen. It would never accept at a truncation point of nan or
    inf, so those raise."""
    if not alpha < math.inf:
        raise FloatingPointError(f"truncation point {alpha} is not finite")
    # The optimal rate (alpha + sqrt(alpha^2 + 4)) / 2 rounds to alpha itself
    # from alpha ~ 1e8 on; beyond 1e154 alpha^2 would overflow to a rate of
    # inf, at which no proposal is ever accepted.
    lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0)) if alpha < 1e150 else alpha
    while True:
        x = alpha + gen.exponential(1.0 / lam)
        diff = x - lam
        if gen.random() <= math.exp(-0.5 * diff * diff):
            return x


def _draw_halfline(m: float, t: float, uni: float, gen: np.random.Generator) -> float:
    """One draw of N(m, t^2) restricted to [0, inf) where the signed standard
    deviation t is positive, or to (-inf, 0) where it is negative; the latent
    sweep calls this once per observation.

    With alpha = -m/t the standardized truncation point, a standard normal
    x >= alpha is drawn by the inverse CDF on the upper-tail mass Phi(-alpha),
    which consumes uni (a uniform on [0, 1), replaced from gen if it is exactly
    0), or for alpha >= _TAIL_SWITCH by _trunc_std_lower, which leaves uni
    unused; the draw is m + t x. Negating t negates alpha and t x exactly,
    so a draw on (-inf, 0) is bit for bit the mirror image of one on
    [0, inf) at mean -m. The inverse-CDF branch runs on math.erfc and the C
    function behind NormalDist.inv_cdf, called past a range check it cannot
    fail here (uni in (0, 1), the mass in (0, 1]).
    """
    alpha = -m / t
    if alpha < _TAIL_SWITCH:
        while uni <= 0.0:
            uni = gen.random()
        val = m - t * _NDTRI(uni * 0.5 * math.erfc(alpha / _SQRT2), 0.0, 1.0)
    else:
        val = m + t * _trunc_std_lower(alpha, gen)
    # Rounding can carry a draw just past 0 when x lies within ulps of alpha
    # (uni near 1), and an exact 0 is outside the open half-line: both are
    # put back.
    if t > 0.0:
        return val if val >= 0.0 else 0.0
    return val if val < 0.0 else -_TINY


def _draw_halflines(m, t, uni, gen: np.random.Generator) -> np.ndarray:
    """_draw_halfline on arrays: draw i is N(m_i, t_i^2) on the half-line the
    sign of t_i dictates, from the uniform uni_i. A bulk row (alpha_i < 5 and
    uni_i > 0) takes the scalar's inverse-CDF formula op for op on
    scipy.special's erfc and ndtri, which agree with the scalar's math.erfc and
    inverse CDF to the last bits only (5.3e-15 absolute on bulk rows of unit
    sd and means of sd 2). Every other row (a Robert tail, a uniform of
    exactly 0, a truncation point of nan) is the scalar draw itself, taken in
    ascending row order, so it consumes gen and raises as the scalar does.
    The scalar's clamp onto the half-line closes every row."""
    alpha = -m / t
    val = m - t * special.ndtri(uni * 0.5 * special.erfc(alpha / _SQRT2))
    for i in np.flatnonzero(~(alpha < _TAIL_SWITCH) | (uni <= 0.0)).tolist():
        val[i] = _draw_halfline(float(m[i]), float(t[i]), float(uni[i]), gen)
    pos = t > 0.0
    val[pos & ~(val >= 0.0)] = 0.0
    val[~pos & ~(val < 0.0)] = -_TINY
    return val


def sample_scaled_inv_chi2(dof, scale, gen: np.random.Generator, size=None):
    """Scaled inverse-chi-square draw: dof*scale / chisq(dof)."""
    if dof <= 0 or scale <= 0:
        raise ValueError("dof and scale must be positive")
    q = gen.chisquare(dof, size=size)
    return dof * scale / q


def inverse_mills(a, out=None):
    """phi(a) / Phi(a), computed via the scaled complementary error function
    so it neither under- nor overflows in either tail. With out (a float
    array of a's shape, which may be a itself) the steps write there and
    allocate nothing; the result has the same bytes either way."""
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty_like(a)
    np.negative(a, out=out)
    np.divide(out, _SQRT2, out=out)
    special.erfcx(out, out=out)
    np.divide(math.sqrt(2.0 / math.pi), out, out=out)
    return float(out) if out.ndim == 0 else out

