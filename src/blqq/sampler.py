"""Gibbs/MH engine for the joint latent-variable model.

The latent sweep integrates the regression coefficients out and samples each
u_i from its leave-one-out truncated normal. Because the error precision
factorizes as a 2x2 matrix kroneckered with the identity, removing
observation i from the u-equation is a rank-one downdate of the full-data
full conditional of beta with scalars c = 1/(1-rho^2) and
b_i = [x_i; -(rho/sigma) x_i]. The same structure reduces the refresh of the
right-hand statistic after each u_i to a p-vector accumulator g, and every
leave-one-out mean m_i is linear in it. So the sweep forms each row's
intercept, coefficient row and variance before it draws any: in closed form
from that downdate, with no n-sized matrix ever formed, or, on a row where
the shortcut's denominator degenerates, by inverting the downdated 2p x 2p
precision. The draws then run one formula for every row, and advance g a
block of _BLOCK rows at a time: within a block each row reads the
accumulator through the lower triangle of the block's kernel, at O(rows so
far in the block) per row instead of O(p). The zero-padded blocks of X that
this reads, the flat index of the kernels' triangles and the +-1 sign of
each row's half-line are laid out once per chain, by SamplerWorkspace.build.
Each row reads three floats, u_i, its uniform and the signed standard
deviation that distributions._draw_halfline takes. The sweep is the u-step
up to _SWEEP_MAX_N rows, the paper's n = 100 included. On taller data the
Python loop would dominate the chain, so there the u-step is plain data
augmentation (Albert & Chib 1993): given beta every u_i is an independent
truncated normal, and the whole vector is one array draw,
distributions._draw_halflines, from the X beta1 and y - X beta2 kept at the
beta draw.

The beta full conditional factors its precision A = LL' with LAPACK dpotrf
and inverts the factor with dtrtri; no dense covariance is formed. It checks
the conditioning from an O(p) trace bound that reads diag(A^-1) as the
squared column norms of L^-1; only where that bound does not settle the
verdict does it take the eigenvalues of the Jacobi-scaled precision. The
mean L^-T (L^-1 t) is formed after the u-step, for the beta draw
mu + L^-T eps; the sweep forms its own starting mean and its p x p kernel
E' A^-1 E = W'W, W = L^-1 E, so that the tall u-step forms neither.

Every other move reads the state through a few scalars formed once where the
state changes. The sigma^2 and rho targets read eta'eta, eta'phi and phi'phi,
set with the residuals, with phi scaled by a power of two 2^-k so that no
product overflows where the target is finite; 2^k/sigma is applied at each
evaluation. The tau^2 draw and the r target of a block read its beta only
through one sum of squares per distinct effect order, formed once per scan.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np
from scipy.linalg import lapack

from .distributions import (
    _TINY,
    _draw_halfline,
    _draw_halflines,
    _pow2_scaled,
    sample_scaled_inv_chi2,
)
from .model import (
    SCALAR_NAMES,
    ChainConfig,
    Dataset,
    Draws,
    EffectOrders,
    HyperState,
    ParameterState,
    PriorConfig,
)

_DENOM_FLOOR = 1e-10
_COND_LIMIT = 1e12
_BLOCK = 16           # rows per block of the u-sweep
_SWEEP_MAX_N = 500    # the most rows on which the u-step is the sweep; above, one draw of u | beta


class IllConditionedError(RuntimeError):
    """Raised when the 2p x 2p full-conditional system is numerically singular."""

    def __init__(self, cond_estimate):
        self.cond_estimate = cond_estimate
        super().__init__(f"full-conditional system ill-conditioned (cond ~ {cond_estimate:.3e})")


def _order_sums(beta, orders: EffectOrders):
    """[(k, S_k)] for each distinct effect order k, S_k the sum of beta_j^2
    over the columns j of order k: all the hyper moves read of beta."""
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):      # an overflowed S_k is named as a prior variance
        sums = np.bincount(orders.group, weights=beta * beta, minlength=len(orders.levels))
    return list(zip(orders.levels, sums.tolist()))


def _order_quad(sums, r: float) -> float:
    """sum_j beta_j^2 / r^{o_j} from the per-order sums; r^k may underflow to 0
    (ZeroDivisionError) only where tau^2 r^k is no valid prior variance."""
    return sum(s / r ** k for k, s in sums)


def _prior_variances(orders: EffectOrders, hyper: HyperState):
    """Prior variance diagonals v1, v2 of beta1 and beta2, checked before the
    beta full conditional forms the precision 1/v from them: one that is not a
    finite normal float (a high effect order may underflow it) raises."""
    out = []
    for block, tau_sq, r in (("beta1", hyper.tau1_sq, hyper.r1), ("beta2", hyper.tau2_sq, hyper.r2)):
        per_order = [tau_sq * r ** k for k in orders.levels]
        v = np.array(per_order)[orders.group]
        if not all(_TINY <= x < math.inf for x in per_order):     # False for nan as well
            j = int(np.argmin((v >= _TINY) & (v < np.inf)))
            raise RuntimeError(
                f"prior variance of {block}_{j + 1} (effect order {orders.orders[j]}) is "
                f"tau^2 * r^order = {float(v[j])!r} at tau^2 = {tau_sq:.6g}, r = {r:.6g}; "
                f"it must be finite and at least {_TINY:.6g}")
        out.append(v)
    return out


@dataclass
class FullConditionalBeta:
    """Full conditional N(mu_beta, L^-T L^-1) of the stacked (beta1, beta2),
    L the lower Cholesky factor of its precision; mu_beta is set after the u-step."""

    chol_inv: np.ndarray        # L^-1, lower triangular
    precision: np.ndarray       # cached for the degenerate-downdate fallback
    mu_beta: np.ndarray | None = None


@dataclass
class SamplerWorkspace:
    """Precomputed cross-products and incrementally maintained statistics."""

    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    gram: np.ndarray            # X'X
    xty: np.ndarray             # X'y
    xtu: np.ndarray             # X'u, maintained incrementally during sweeps
    xb1: np.ndarray = field(init=False)     # X beta1, kept by refresh_residuals like xtu
    phi: np.ndarray = field(init=False)     # y - X beta2, likewise
    quads: tuple = field(init=False)        # _residual_quads(u - X beta1, phi)
    sign: np.ndarray = field(init=False)    # +1 where z_i = 1, else -1: signs each sd
    # [X, 0] padded with zero rows to whole blocks of _BLOCK rows, as the
    # sweep reads it: the rows of each block (the last block ragged, cut at
    # n) and every block transposed, shape (n_blocks, p + 1, _BLOCK); and the
    # flat index of every block kernel's strict lower triangle, by rows
    x_blocks: list = field(init=False)
    x_blocks_t: np.ndarray = field(init=False)
    below: np.ndarray = field(init=False)
    loo_fallbacks: int = 0

    @classmethod
    def build(cls, data: Dataset, state: ParameterState) -> "SamplerWorkspace":
        X, y = data.X, data.y
        n, p = X.shape
        with np.errstate(over="ignore", invalid="ignore"):   # _check_conditioning names it
            ws = cls(X=X, y=y, z=data.z, gram=X.T @ X, xty=X.T @ y, xtu=X.T @ state.u)
            ws.refresh_residuals(state)
        Xp = np.zeros((-(-n // _BLOCK) * _BLOCK, p + 1))
        Xp[:n, :p] = X
        ws.x_blocks = [Xp[i0:min(i0 + _BLOCK, n)] for i0 in range(0, n, _BLOCK)]
        ws.x_blocks_t = Xp.reshape(-1, _BLOCK, p + 1).transpose(0, 2, 1)
        below = np.flatnonzero(np.tri(_BLOCK, k=-1))                # by rows
        ws.below = (np.arange(len(ws.x_blocks))[:, None] * _BLOCK ** 2 + below).ravel()
        ws.sign = np.where(ws.z == 1, 1.0, -1.0)
        return ws

    def refresh_residuals(self, state: ParameterState) -> None:
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite beta fails downstream
            self.xb1, self.phi = self.X @ state.beta1, self.y - self.X @ state.beta2
            self.quads = _residual_quads(state.u - self.xb1, self.phi)


def _residual_quads(eta, phi):
    """(eta'eta, eta'phi_s, phi_s'phi_s, k), all the sigma^2 and rho targets
    read of the residuals, with phi_s, k = _pow2_scaled(phi)."""
    phi_s, k = _pow2_scaled(phi)
    return float(eta @ eta), float(eta @ phi_s), float(phi_s @ phi_s), k


def _statistic(ws: SamplerWorkspace, sigma2: float, rho: float) -> np.ndarray:
    """Right-hand statistic X_full' Sigma_eps^{-1} [u; y] as a 2p vector."""
    s = math.sqrt(sigma2)
    one_m = 1.0 - rho * rho
    t1 = (ws.xtu - (rho / s) * ws.xty) / one_m
    t2 = (-(rho / s) * ws.xtu + ws.xty / sigma2) / one_m
    return np.concatenate([t1, t2])


def _check_conditioning(A: np.ndarray) -> None:
    """Raise IllConditionedError unless the Jacobi-scaled precision
    D^-1/2 A D^-1/2 is positive definite with eigenvalue ratio at most
    _COND_LIMIT. A tiny prior variance (r at its clamp) only scales A badly,
    and the Cholesky factorization is indifferent to that scaling. An A that
    is not finite (an overflowed Gram matrix) is rejected with cond inf before
    eigvalsh, which returns nan for some such matrices and fails on others."""
    if not np.isfinite(A).all():
        raise IllConditionedError(np.inf)
    dinv = 1.0 / np.sqrt(np.diag(A))
    eigs = np.linalg.eigvalsh(A * np.outer(dinv, dinv))
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > _COND_LIMIT:
        raise IllConditionedError(np.inf if eigs[0] <= 0 else eigs[-1] / eigs[0])


def compute_beta_full_conditional(ws: SamplerWorkspace, sigma2, rho, v1, v2) -> FullConditionalBeta:
    """Covariance of beta | u, y, sigma2, rho with prior N(0, diag(v1, v2)),
    as the inverse factor L^-1 and the precision; the mean is left unset.

    Built directly from the p x p Gram matrix via the Kronecker structure of
    the error precision; nothing of size n enters the linear algebra, and u
    does not enter at all. Raises IllConditionedError where
    _check_conditioning rejects the precision.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    p = ws.gram.shape[0]
    s = math.sqrt(sigma2)
    one_m = 1.0 - rho * rho
    k11 = 1.0 / one_m
    k12 = -rho / (one_m * s)
    k22 = 1.0 / (one_m * sigma2)

    # An overflowed Gram matrix makes A not finite (k12 * inf is nan at
    # rho = 0), the inverse of a nearly singular A may overflow, and the
    # factor of an overflowed A holds nan; the bound below is then not finite,
    # and the eigenvalue test decides and names the failure.
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.empty((2 * p, 2 * p))
        A[:p, :p] = k11 * ws.gram
        A[p:, p:] = k22 * ws.gram
        A[:p, p:] = k12 * ws.gram
        A[p:, :p] = A[:p, p:].T
        diag = A.reshape(-1)[::2 * p + 1]          # a view of A's diagonal
        diag[:p] += 1.0 / v1
        diag[p:] += 1.0 / v2

        L, info = lapack.dpotrf(A, lower=1)
        try:        # a refusal carries the failed factorization as its context
            if info:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
        except np.linalg.LinAlgError:
            _check_conditioning(A)
            raise
        Linv, _ = lapack.dtrtri(L, lower=1)
        # The scaled precision A_s and its inverse are SPD with tr(A_s) = 2p,
        # so cond(A_s) <= tr(A_s) tr(A_s^-1) = 2p sum_i A_ii (A^-1)_ii, and
        # (A^-1)_ii is the squared norm of column i of L^-1. Where that bound
        # is well inside _COND_LIMIT the eigenvalue test must accept too; the
        # factor 1/2 keeps rounding in the bound and in eigvalsh from flipping
        # a verdict at the limit.
        bound = 2 * p * float(np.dot(np.diag(A), np.einsum("ij,ij->j", Linv, Linv)))
    if not bound <= 0.5 * _COND_LIMIT:       # also where bound is nan
        _check_conditioning(A)
    return FullConditionalBeta(chol_inv=Linv, precision=A)


def _beta_mean(chol_inv, t):
    """Sigma_beta t as L^-T (L^-1 t)."""
    return chol_inv.T @ (chol_inv @ t)


def _sweep_kernel(chol_inv, w):
    """The u-sweep's p x p kernel E' Sigma_beta E, E = [I; -w I], as W'W, W = L^-1 E."""
    p = chol_inv.shape[0] // 2
    W = chol_inv[:, :p] - w * chol_inv[:, p:]
    return W.T @ W


def sample_u_sweep(state: ParameterState, fc: FullConditionalBeta,
                   ws: SamplerWorkspace, gen: np.random.Generator) -> np.ndarray:
    """The u-step: on up to _SWEEP_MAX_N rows one in-order sweep of
    u_1..u_n from their leave-one-out conditionals, on more rows one draw of
    u given beta.

    In the sweep each u_i is drawn from N(m_i, v_i) truncated to the
    half-line dictated by z_i, with beta integrated out, so later indices
    condition on the partially updated u.

    On more than _SWEEP_MAX_N rows fc is not read: every u_i is drawn at once
    from N(x_i'beta1 + w phi_i, 1 - rho^2), truncated by z_i, read off
    ws.xb1 and ws.phi = y - X beta2 at state's beta, by _draw_halflines on
    one batch of n uniforms, and ws.xtu is set to X'u. The sweep mixes better
    per scan at moderate n; above the constant its interpreted loop costs
    more than it gains (measured with scripts/mixing.py at n = 100, 300 and
    1000).

    With E = [I; -w I] and w = rho/sigma, b_i = E x_i, and every update of
    the statistic t lies along some b_j: t = t0 + c E g with the p-vector
    g = sum_{j<i} delta_j x_j. So m_i = base_i + coef_i g, and base_i, coef_i
    and v_i are formed for every row before the first draw. The sweep forms
    t0 from ws.xtu, which must equal X'u, the mean Sigma_beta t0 and the
    p x p kernel E' Sigma_beta E from fc's L^-1. In closed form, with
    a = X E' Sigma_beta t0, R = X E' Sigma_beta E, d_i = R_i x_i and
    q_i = 1/(1 - c d_i): coef_i = c q_i R_i,
    base_i = w y_i + q_i (a_i - c d_i (u_i - w y_i)) and
    v_i = max(d_i q_i + 1 - rho^2, 1 - rho^2). A row whose denominator
    1 - c d_i falls below _DENOM_FLOOR reads the three from h = Sigma_-i b_i
    instead, Sigma_-i the inverse of the downdated precision: coef_i = c E'h,
    base_i = w y_i + h'(t0 - c (u_i - w y_i) b_i) and
    v_i = max(b_i'h + 1 - rho^2, 1 - rho^2); ws.loo_fallbacks counts those
    rows. The draw takes v_i as the signed standard deviation
    sd_i = +-sqrt(v_i), positive where z_i = 1, on either path.

    The rows go in blocks of _BLOCK: with [coef_i, base_i] as row i and
    [g_B; 1] as the accumulator at a block's start, one product gives every
    row's base, and the k-th row adds sum_{l<k} K_kl delta_l from the block
    kernel K = coef_B X_B'. Only the strict lower triangles of the kernels
    are kept, as one list per sweep read through one iterator, from which row
    k takes exactly its k entries, so the loop, which runs on Python floats,
    does O(k) work per row instead of O(p). g_B += X_B' delta_B closes a
    block; the blocks of X and the triangles' index come from ws. The
    uniforms come from one batch. A fresh X'u replaces the accumulated one,
    which must agree with it to 1e-8 relative, else RuntimeError. On either
    path, overflow and division by zero in the per-row vectors, on degenerate
    data, are not warned about: the numeric failure they lead to is named.
    """
    X, y = ws.X, ws.y
    n, p = X.shape
    u = state.u
    rho, sigma2 = state.rho, state.sigma2
    w = rho / math.sqrt(sigma2)
    one_m = 1.0 - rho * rho
    if n > _SWEEP_MAX_N:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # see the docstring
            m = ws.xb1 + w * ws.phi
            u[:] = _draw_halflines(m, math.sqrt(one_m) * ws.sign, gen.random(n), gen)
            ws.xtu = X.T @ u
        return u
    c = 1.0 / one_m
    draw = _draw_halfline                             # the module global at call time

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # see the docstring
        t0 = _statistic(ws, sigma2, rho)
        mu = _beta_mean(fc.chol_inv, t0)
        # [coef_i, base_i], padded with zero rows to whole blocks
        Rp = np.zeros((len(ws.x_blocks) * _BLOCK, p + 1))
        R = np.matmul(X, _sweep_kernel(fc.chol_inv, w), out=Rp[:n, :p])
        d = np.einsum("ij,ij->i", R, X)               # b_i' Sigma_beta b_i
        denom = 1.0 - c * d
        fallback = np.flatnonzero(denom < _DENOM_FLOOR).tolist()   # nan stays closed-form
        q = 1.0 / denom
        sd = np.sqrt(np.maximum(d * q + one_m, one_m)) * ws.sign   # signed by the half-line
        wy = w * y
        a = X @ (mu[:p] - w * mu[p:])
        Rp[:n, p] = wy + q * (a - c * d * (u - wy))
        R *= (c * q)[:, None]
        for i in fallback:
            b = np.concatenate((X[i], -w * X[i]))
            try:
                h = np.linalg.inv(fc.precision - c * np.outer(b, b)) @ b
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"singular downdated precision in the leave-one-out fallback "
                    f"at row {i + 1}") from exc
            R[i] = c * (h[:p] - w * h[p:])
            Rp[i, p] = wy[i] + h @ (t0 - (c * (u[i] - wy[i])) * b)
            sd[i] = math.sqrt(max(float(b @ h) + one_m, one_m)) * ws.sign[i]
        ws.loo_fallbacks += len(fallback)
        RB = Rp.reshape(-1, _BLOCK, p + 1)
        kern = iter(np.matmul(RB, ws.x_blocks_t).ravel().take(ws.below).tolist())
        uni = gen.random(n)

        ul = []
        gA = np.zeros(p + 1)                          # [g; 1]
        gA[p] = 1.0
        uu, sds, unis = u.tolist(), sd.tolist(), uni.tolist()
        for i0, Xb, Rb in zip(range(0, n, _BLOCK), ws.x_blocks, RB):
            i1 = i0 + _BLOCK
            deltas = []
            for base, ui, sdi, unif in zip((Rb @ gA).tolist(), uu[i0:i1], sds[i0:i1], unis[i0:i1]):
                # map stops at deltas first, so row k takes its k kernel entries
                un = draw(base + sum(map(mul, deltas, kern)), sdi, unif, gen)
                deltas.append(un - ui)
                ul.append(un)
            gA += np.dot(deltas, Xb)
        u[:] = ul
        xtu = X.T @ u               # the accumulated X'u, checked against a fresh product
        if np.linalg.norm(ws.xtu + gA[:p] - xtu) > 1e-8 * max(np.linalg.norm(xtu), 1.0):
            raise RuntimeError("incremental X'u statistic drifted")
    ws.xtu = xtu
    return u


def sample_beta(fc: FullConditionalBeta, gen: np.random.Generator):
    """One joint draw of (beta1, beta2) from the cached full conditional."""
    eps = gen.standard_normal(fc.mu_beta.shape[0])
    draw = fc.mu_beta + fc.chol_inv.T @ eps
    p = draw.shape[0] // 2
    return draw[:p], draw[p:]


def _rw_mh(cur, to_free, from_free, log_target, step, gen):
    """One random-walk Metropolis step for a scalar, taken on the free scale
    to_free(x) with a N(0, step^2) increment.

    log_target(x) is the log density of x plus the log Jacobian of from_free.
    A proposal whose log target is -inf is rejected: the log ratio is then
    -inf and log u never falls below it; so is one that overflows (math.exp
    beyond the float range) or divides by a power r^k that underflows to 0,
    after drawing the same two variates.
    """
    try:
        prop = from_free(to_free(cur) + step * gen.standard_normal())
        log_ratio = log_target(prop) - log_target(cur)
    except ArithmeticError:
        prop, log_ratio = cur, -math.inf
    if math.log(max(gen.random(), 1e-300)) < log_ratio:
        return prop, True
    return cur, False


def _scaled_bracket(quads, sigma2, rho) -> float:
    """(eta'eta - 2 rho eta'phi / sigma + phi'phi / sigma^2) / (1 - rho^2)
    from _residual_quads, with 2^k / sigma applied to the scaled phi."""
    ee, ep, pp, k = quads
    h = math.ldexp(1.0 / math.sqrt(sigma2), k)         # 2^k / sigma
    return (ee - 2.0 * rho * h * ep + h * (h * pp)) / (1.0 - rho * rho)


def _log_sigma2_target(sigma2, quads, rho, n, prior: PriorConfig) -> float:
    """Log conditional of sigma^2 plus log sigma^2, the log Jacobian of exp.

    At rho = 0 the latent residuals enter only as the constant -eta'eta/2,
    which cancels in an MH ratio, so the rho-pinned chain runs this target too.
    """
    nu0 = prior.sigma2_prior_dof
    return -0.5 * (n + nu0) * math.log(sigma2) \
        - 0.5 * (_scaled_bracket(quads, sigma2, rho) + nu0 * prior.sigma2_prior_scale / sigma2)


def sample_sigma2_mh(state: ParameterState, ws: SamplerWorkspace, prior: PriorConfig,
                     step: float, gen: np.random.Generator):
    """Random-walk MH on log sigma^2."""
    n = ws.y.shape[0]
    return _rw_mh(state.sigma2, math.log, math.exp,
                  lambda s2: _log_sigma2_target(s2, ws.quads, state.rho, n, prior),
                  step, gen)


def _log_rho_target(rho, quads, sigma2, n) -> float:
    """Log conditional of rho (flat prior on (-1, 1)) plus log(1 - rho^2), the
    log Jacobian of tanh; -inf where tanh has rounded rho to +-1."""
    one_m = 1.0 - rho * rho
    if one_m <= 0.0:
        return -math.inf
    return (1.0 - 0.5 * n) * math.log(one_m) - 0.5 * _scaled_bracket(quads, sigma2, rho)


def sample_rho_mh(state: ParameterState, ws: SamplerWorkspace, step: float,
                  gen: np.random.Generator):
    """Random-walk MH on atanh(rho)."""
    n = ws.y.shape[0]
    return _rw_mh(state.rho, math.atanh, math.tanh,
                  lambda rho: _log_rho_target(rho, ws.quads, state.sigma2, n),
                  step, gen)


def sample_tau2(sums, orders: EffectOrders, r_k, prior: PriorConfig,
                gen: np.random.Generator) -> float:
    """Conjugate scaled-inv-chi^2 draw of one tau_k^2, from the block's _order_sums."""
    dof = prior.nu + len(orders.orders)
    scale = (_order_quad(sums, float(r_k)) + prior.nu * prior.delta_sq) / dof
    return float(sample_scaled_inv_chi2(dof, scale, gen))


def _log_r_target(r, sums, order_sum, tau_sq, a, b) -> float:
    """Log conditional of r plus log r(1 - r), the log Jacobian of the inverse
    logit, from the per-order sums of _order_sums and the sum of all orders."""
    return (
        (a - 0.5 * order_sum) * math.log(r) + b * math.log1p(-r)
        - _order_quad(sums, r) / (2.0 * tau_sq)
    )


def _expit_clamped(x: float) -> float:
    # keeps r strictly inside (0, 1) where the inverse logit rounds to 0 or 1
    return min(max(1.0 / (1.0 + math.exp(-x)), 1e-12), 1.0 - 1e-12)


def sample_r_mh(sums, tau_sq_k, orders: EffectOrders, prior: PriorConfig,
                step: float, gen: np.random.Generator, current: float):
    """Random-walk MH on logit(r) for one decay parameter, from the block's _order_sums."""
    cur = float(current)
    if not 0.0 < cur < 1.0:
        raise ValueError("current r must lie in (0, 1)")
    return _rw_mh(cur, lambda r: math.log(r) - math.log1p(-r), _expit_clamped,
                  lambda r: _log_r_target(r, sums, orders.order_sum, tau_sq_k, prior.a, prior.b),
                  step, gen)


def init_state(data: Dataset):
    """Initialization: one least-squares fit of X to [y, 2z - 1] for beta2 and
    beta1 (the minimum-norm one where X has rank below p), with 0 for each
    coefficient beyond the float range (X near 1e-300 against y near 1e150,
    where the Gram matrix underflows and that coefficient's posterior is about
    its prior), the mean square residual for sigma^2, sign-corrected link
    values for u, sample correlation for rho (0 where u or y is constant), and
    the hypers at _INITIAL_HYPER.
    The mean square is taken of the _pow2_scaled residuals and scaled back, so
    it is inf only where it exceeds the float range itself, and the
    correlation of the _pow2_scaled y, whose squares do not underflow. A start
    that is not finite (data whose squares overflow) raises RuntimeError; the
    overflow and invalid-value warnings numpy would print on the way, from
    here and corrcoef, are silenced, because that error names the failure."""
    X, y, z = data.X, data.y, data.z

    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.linalg.lstsq(X, np.column_stack((y, 2.0 * z - 1.0)), rcond=None)[0]
        coef[~np.isfinite(coef)] = 0.0
        beta2, beta1 = coef.T.copy()
        resid = y - X @ beta2
        scaled, k = _pow2_scaled(resid)
        sigma2 = max(float(np.ldexp(scaled @ scaled / data.n, 2 * k)), 1e-6)

        xb = X @ beta1
        mag = np.maximum(np.abs(xb), 1e-3)
        u0 = np.where(z == 1, mag, -mag)
        rho0 = float(np.nan_to_num(np.corrcoef(u0, _pow2_scaled(y)[0])[0, 1]))
    rho0 = min(max(rho0, -0.95), 0.95)

    start = {"beta1": beta1, "beta2": beta2, "sigma2": sigma2, "rho": rho0, "u": u0}
    for name, value in start.items():
        if not np.isfinite(value).all():
            raise RuntimeError(f"{name} is not finite")
    return ParameterState(**start), HyperState(**_INITIAL_HYPER)


@dataclass
class ChainOutput(Draws):
    """Stored post-burn-in draws plus acceptance and timing bookkeeping."""

    accept_counts: dict         # target -> (accepted, proposed) after burn-in
    steps: dict                 # target -> MH step size at the end of the chain
    final_u: np.ndarray
    config: ChainConfig
    loo_fallbacks: int
    timings: dict = field(default_factory=dict)

    @property
    def acceptance(self) -> dict:
        """target -> post-adaptation acceptance rate, nan where nothing was proposed."""
        return {t: acc / prop if prop else float("nan")
                for t, (acc, prop) in self.accept_counts.items()}


_MH_TARGETS = ("sigma2", "rho", "r1", "r2")

# Every MH step starts at _INITIAL_STEP and adapted steps stay inside
# _STEP_BOUNDS. The ceiling has to be generous: when the data carry little
# information about r its logit-scale posterior is heavy-tailed, and reaching
# 0.35 acceptance needs steps well beyond 10. Every chain starts its hypers at
# _INITIAL_HYPER; like the steps, the start is no part of the target posterior.
_INITIAL_STEP = 0.5
_STEP_BOUNDS = (1e-3, 80.0)
_INITIAL_HYPER = {"tau1_sq": 0.5, "tau2_sq": 0.5, "r1": 0.3, "r2": 0.3}


def _iterate(state: ParameterState, hyper: HyperState, ws: SamplerWorkspace,
             orders: EffectOrders, prior: PriorConfig, steps: dict, rngs: dict,
             joint: bool, timings: dict) -> dict:
    """One Gibbs/MH scan, updating state, hyper and ws in place: the u-sweep
    with beta integrated out, the joint beta draw, MH moves for sigma^2 and
    (joint chains only) rho, conjugate tau^2 draws, and MH moves for r1/r2.
    Adds each block's wall time to timings: beta_fc holds the full
    conditional and its mean, formed after the u-step, and u_sweep
    sample_u_sweep alone (on the sweep path its X'u drift check, starting
    mean and kernel too). Returns {target: accepted} for every MH move made."""
    v1, v2 = _prior_variances(orders, hyper)

    tic = time.perf_counter()
    fc = compute_beta_full_conditional(ws, state.sigma2, state.rho, v1, v2)
    sweep_tic = time.perf_counter()
    sample_u_sweep(state, fc, ws, rngs["u"])
    sweep_toc = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite mean fails downstream
        fc.mu_beta = _beta_mean(fc.chol_inv, _statistic(ws, state.sigma2, state.rho))
    toc = time.perf_counter()
    timings["u_sweep"] += sweep_toc - sweep_tic
    timings["beta_fc"] += (sweep_tic - tic) + (toc - sweep_toc)

    tic = time.perf_counter()
    state.beta1, state.beta2 = sample_beta(fc, rngs["beta"])
    ws.refresh_residuals(state)
    timings["beta"] += time.perf_counter() - tic

    tic = time.perf_counter()
    hits = {}
    state.sigma2, hits["sigma2"] = sample_sigma2_mh(state, ws, prior, steps["sigma2"],
                                                    rngs["sigma2"])
    if joint:
        state.rho, hits["rho"] = sample_rho_mh(state, ws, steps["rho"], rngs["rho"])
    timings["sigma2_rho"] += time.perf_counter() - tic

    tic = time.perf_counter()
    sums1, sums2 = _order_sums(state.beta1, orders), _order_sums(state.beta2, orders)
    hyper.tau1_sq = sample_tau2(sums1, orders, hyper.r1, prior, rngs["tau1"])
    hyper.tau2_sq = sample_tau2(sums2, orders, hyper.r2, prior, rngs["tau2"])
    hyper.r1, hits["r1"] = sample_r_mh(sums1, hyper.tau1_sq, orders, prior,
                                       steps["r1"], rngs["r1"], current=hyper.r1)
    hyper.r2, hits["r2"] = sample_r_mh(sums2, hyper.tau2_sq, orders, prior,
                                       steps["r2"], rngs["r2"], current=hyper.r2)
    timings["hyper"] += time.perf_counter() - tic
    return hits


_NUMERIC = (ArithmeticError, RuntimeError, ValueError)    # LinAlgError is a ValueError


def run_chain(data: Dataset, orders: EffectOrders, prior: PriorConfig, cfg: ChainConfig) -> ChainOutput:
    """Full Gibbs run: init, then cfg.iterations scans of _iterate. MH steps
    adapt toward 0.35 acceptance during burn-in only; acceptances are counted
    and draws stored after it. Arguments that cannot be fit raise ValueError;
    after them, any _NUMERIC exception is a numeric failure: RuntimeError."""
    if data.n < 2 or data.y is None or data.z is None:
        raise ValueError("need n >= 2 rows and both responses, y and z")
    if len(orders.orders) != data.p:
        raise ValueError(f"{len(orders.orders)} effect orders given for {data.p} columns")
    try:
        state, hyper = init_state(data)
        ws = SamplerWorkspace.build(data, state)
    except _NUMERIC as exc:
        raise RuntimeError(f"numeric failure at the start: {exc}") from exc
    joint = not cfg.freeze_rho_at_zero
    if not joint:
        state.rho = 0.0

    rngs = {name: np.random.default_rng([cfg.seed, k]) for k, name in enumerate(
        ("u", "beta", "sigma2", "rho", "tau1", "tau2", "r1", "r2"), start=1)}

    steps = {t: _INITIAL_STEP for t in _MH_TARGETS}
    counts = {t: (0, 0) for t in _MH_TARGETS}
    n_store = (cfg.iterations - cfg.burn_in) // cfg.thin
    draws = np.empty((n_store, 2 * data.p + len(SCALAR_NAMES)))
    timings = {"beta_fc": 0.0, "u_sweep": 0.0, "beta": 0.0, "sigma2_rho": 0.0, "hyper": 0.0}

    s_idx = 0
    for j in range(1, cfg.iterations + 1):
        try:
            hits = _iterate(state, hyper, ws, orders, prior, steps, rngs, joint, timings)
        except _NUMERIC as exc:
            raise RuntimeError(f"numeric failure at iteration {j}: {exc}") from exc

        if j <= cfg.burn_in:
            gamma = j ** -0.6
            for t, acc in hits.items():
                proposal = steps[t] * math.exp(gamma * ((1.0 if acc else 0.0) - 0.35))
                steps[t] = min(max(proposal, _STEP_BOUNDS[0]), _STEP_BOUNDS[1])
        else:
            for t, acc in hits.items():
                counts[t] = (counts[t][0] + int(acc), counts[t][1] + 1)

        if j > cfg.burn_in and (j - cfg.burn_in) % cfg.thin == 0:
            draws[s_idx] = np.concatenate((state.beta1, state.beta2, (
                state.sigma2, state.rho, hyper.tau1_sq, hyper.tau2_sq, hyper.r1, hyper.r2)))
            s_idx += 1

    return ChainOutput(
        draws=draws,
        accept_counts=counts,
        steps=steps,
        final_u=state.u.copy(),
        config=replace(cfg),
        loo_fallbacks=ws.loo_fallbacks,
        timings=timings,
    )
