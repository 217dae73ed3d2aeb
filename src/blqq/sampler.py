"""Gibbs/MH engine for the joint latent-variable model.

The latent sweep integrates the regression coefficients out and samples each
u_i from its leave-one-out truncated normal. Because the error precision
factorizes as a 2x2 matrix kroneckered with the identity, removing
observation i from the u-equation is a rank-one downdate of the full-data
full conditional of beta with scalars c = 1/(1-rho^2) and
b_i = [x_i; -(rho/sigma) x_i]. The sweep evaluates the leave-one-out moments
(m_i, v_i) of u_i from that downdate in closed form, with no n-sized matrix
ever formed, and falls back to inverting the downdated 2p x 2p precision when
the shortcut's denominator degenerates. The same structure reduces the
refresh of the right-hand statistic after each u_i to a p-vector
accumulator, which the sweep advances a block of _BLOCK rows at a time:
within a block each row reads the accumulator through the lower triangle of
the block's kernel, at O(rows so far in the block) per row instead of O(p).
The half-line draw itself is distributions._draw_halfline.

The beta full conditional factors its precision first and checks the
conditioning from an O(p) trace bound on the inverse it has just formed; only
where that bound does not settle the verdict does it take the eigenvalues of
the Jacobi-scaled precision.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np
from scipy import linalg as sla

from .distributions import _TINY, _draw_halfline, sample_scaled_inv_chi2
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
_BELOW = np.tril_indices(_BLOCK, -1)    # a block kernel's strict lower triangle, by rows


class IllConditionedError(RuntimeError):
    """Raised when the 2p x 2p full-conditional system is numerically singular."""

    def __init__(self, cond_estimate):
        self.cond_estimate = cond_estimate
        super().__init__(f"full-conditional system ill-conditioned (cond ~ {cond_estimate:.3e})")


class PriorVarianceError(RuntimeError):
    """Raised when a prior variance tau^2 * r^order is not a finite normal
    float, e.g. when a high effect order underflows it, so that the precision
    1/v would overflow."""


def _prior_variances(orders: EffectOrders, hyper: HyperState):
    """Prior variance diagonals v1, v2 of beta1 and beta2, checked before the
    beta full conditional forms the precision 1/v from them."""
    out = []
    for block, tau_sq, r in (("beta1", hyper.tau1_sq, hyper.r1), ("beta2", hyper.tau2_sq, hyper.r2)):
        v = tau_sq * np.power(float(r), orders.orders.astype(float))
        ok = (v >= _TINY) & (v < np.inf)       # False for nan as well
        if not ok.all():
            j = int(np.argmin(ok))
            raise PriorVarianceError(
                f"prior variance of {block}_{j + 1} (effect order {orders.orders[j]}) is "
                f"tau^2 * r^order = {float(v[j])!r} at tau^2 = {tau_sq:.6g}, r = {r:.6g}; "
                f"it must be finite and at least {_TINY:.6g}")
        out.append(v)
    return out


@dataclass
class FullConditionalBeta:
    """Full conditional N(mu_beta, sigma_beta) of the stacked (beta1, beta2)."""

    mu_beta: np.ndarray
    sigma_beta: np.ndarray
    chol_inv: np.ndarray        # inverse of the precision's lower Cholesky factor
    precision: np.ndarray       # cached for the degenerate-downdate fallback


@dataclass
class SamplerWorkspace:
    """Precomputed cross-products and incrementally maintained statistics."""

    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    gram: np.ndarray            # X'X
    xty: np.ndarray             # X'y
    xtu: np.ndarray             # X'u, maintained incrementally during sweeps
    eta: np.ndarray             # u - X beta1
    phi: np.ndarray             # y - X beta2
    loo_fallbacks: int = 0

    @classmethod
    def build(cls, data: Dataset, state: ParameterState) -> "SamplerWorkspace":
        X, y = data.X, data.y
        with np.errstate(over="ignore", invalid="ignore"):   # _check_conditioning names it
            gram = X.T @ X
        return cls(
            X=X,
            y=y,
            z=data.z,
            gram=gram,
            xty=X.T @ y,
            xtu=X.T @ state.u,
            eta=state.u - X @ state.beta1,
            phi=y - X @ state.beta2,
        )

    def refresh_residuals(self, state: ParameterState) -> None:
        self.eta = state.u - self.X @ state.beta1
        self.phi = self.y - self.X @ state.beta2


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
    """Mean and covariance of beta | u, y, sigma2, rho with prior N(0, diag(v1, v2)).

    Built directly from the p x p Gram matrix via the Kronecker structure of
    the error precision; nothing of size n enters the linear algebra. The
    data enter through the workspace, whose xtu must equal X'u. Raises
    IllConditionedError where _check_conditioning rejects the precision.
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

    A = np.empty((2 * p, 2 * p))
    A[:p, :p] = k11 * ws.gram
    A[:p, :p][np.diag_indices(p)] += 1.0 / v1
    A[p:, p:] = k22 * ws.gram
    A[p:, p:][np.diag_indices(p)] += 1.0 / v2
    A[:p, p:] = k12 * ws.gram
    A[p:, :p] = A[:p, p:].T

    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        _check_conditioning(A)
        raise
    # The inverse of a nearly singular A may overflow without a warning, and
    # the factor of an overflowed A holds nan (hence check_finite=False); the
    # bound is then not finite and the eigenvalue test below decides.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Linv = sla.solve_triangular(L, np.eye(2 * p), lower=True, check_finite=False)
        sigma_beta = Linv.T @ Linv
        # The scaled precision A_s and its inverse are SPD with tr(A_s) = 2p,
        # so cond(A_s) <= tr(A_s) tr(A_s^-1) = 2p sum_i A_ii (A^-1)_ii. Where
        # that bound is well inside _COND_LIMIT the eigenvalue test must
        # accept too; the factor 1/2 keeps rounding in the bound and in
        # eigvalsh from flipping a verdict at the limit.
        bound = 2 * p * float(np.dot(np.diag(A), np.diag(sigma_beta)))
    if not bound <= 0.5 * _COND_LIMIT:       # also where bound is nan
        _check_conditioning(A)
    sigma_beta = 0.5 * (sigma_beta + sigma_beta.T)

    t = _statistic(ws, sigma2, rho)
    mu_beta = sigma_beta @ t
    return FullConditionalBeta(
        mu_beta=mu_beta,
        sigma_beta=sigma_beta,
        chol_inv=Linv,
        precision=A,
    )


def sample_u_sweep(state: ParameterState, fc: FullConditionalBeta,
                   ws: SamplerWorkspace, gen: np.random.Generator) -> np.ndarray:
    """One in-order sweep of u_1..u_n from their leave-one-out conditionals.

    Each u_i is drawn from N(m_i, v_i) truncated to the half-line dictated by
    z_i, with beta integrated out, so later indices condition on the
    partially updated u. Where the closed-form downdate's denominator falls
    below _DENOM_FLOOR the moments come from inverting the downdated
    precision instead, and ws.loo_fallbacks counts it.

    With E = [I; -w I] and w = rho/sigma, b_i = E x_i, and every update of
    the statistic t lies along some b_j: t = t0 + c E g with the p-vector
    g = sum_{j<i} delta_j x_j. So b_i' Sigma_beta t = a_i + c R_i g with
    a = X E' mu_beta, read off fc's mean Sigma_beta t0, and
    R = X E' Sigma_beta E, formed once per sweep. So fc must be the full
    conditional at the u whose X'u ws.xtu holds; ws.xtu keeps that value
    until the sweep ends, and the fallback rebuilds t0 from it. With
    d_i = R_i x_i and q_i = 1/(1 - c d_i) (0 on fallback rows), the closed form
    is m_i = w y_i + q_i (a_i - c d_i (u_i - w y_i)) + c q_i R_i g and
    v_i = max(d_i q_i + 1 - rho^2, 1 - rho^2), all but the last term of m_i
    formed as vectors once per sweep. The rows go in blocks of _BLOCK: with
    [c q_i R_i, base_i] as row i and [g_B; 1] as the accumulator at a block's
    start, one product gives every row's base, and the k-th row adds
    sum_{l<k} K_kl delta_l from the block kernel K = (c q R_B) X_B'. Only the
    strict lower triangles of the kernels are kept, as one list per sweep
    read through one iterator, from which row k takes exactly its k entries,
    so the loop, which runs on Python floats, does O(k) work per row instead
    of O(p). g_B += X_B' delta_B closes a block. The uniforms of the
    half-line draws come from one batch.
    """
    X, y, z = ws.X, ws.y, ws.z
    n, p = X.shape
    u = state.u
    rho, sigma2 = state.rho, state.sigma2
    w = rho / math.sqrt(sigma2)
    one_m = 1.0 - rho * rho
    c = 1.0 / one_m

    S = fc.sigma_beta[:p] - w * fc.sigma_beta[p:]     # E' Sigma_beta
    R = X @ (S[:, :p] - w * S[:, p:])
    d = np.einsum("ij,ij->i", R, X)                   # b_i' Sigma_beta b_i
    denom = 1.0 - c * d
    q = np.zeros(n)                                   # 1/denom, 0 on fallback rows
    np.divide(1.0, denom, out=q, where=~(denom < _DENOM_FLOOR))
    v = np.maximum(d * q + one_m, one_m)
    wy = w * y
    a = X @ (fc.mu_beta[:p] - w * fc.mu_beta[p:])
    uni = gen.random(n)

    # [c q_i R_i, base_i] and [x_i, 0], padded with zero rows to whole blocks
    n_blocks = -(-n // _BLOCK)
    Rp = np.zeros((n_blocks * _BLOCK, p + 1))
    Rp[:n, :p] = (c * q)[:, None] * R
    Rp[:n, p] = wy + q * (a - c * d * (u - wy))
    Xp = np.zeros((n_blocks * _BLOCK, p + 1))
    Xp[:n, :p] = X
    XB = Xp.reshape(n_blocks, _BLOCK, p + 1)
    RB = Rp.reshape(n_blocks, _BLOCK, p + 1)
    kern = iter(np.matmul(RB, XB.transpose(0, 2, 1))[:, _BELOW[0], _BELOW[1]].ravel().tolist())

    ul = []
    gA = np.zeros(p + 1)                              # [g; 1]
    gA[p] = 1.0
    rows = zip(u.tolist(), q.tolist(), v.tolist(), (z == 1).tolist(), uni.tolist())
    for i0, Xb, Rb in zip(range(0, n, _BLOCK), XB, RB):
        deltas = []
        # base runs out with the block, before rows is advanced
        for base, (ui, qi, vi, nonneg, unif) in zip((Rb @ gA).tolist(), rows):
            # map stops at deltas first, so row k takes its k kernel entries;
            # fallback rows take theirs too, which keeps kern in step
            m = base + sum(map(mul, deltas, kern))
            if qi == 0.0:
                ws.loo_fallbacks += 1
                k = len(deltas)
                g = gA[:p] + Xb[:k, :p].T @ np.array(deltas)
                xk = Xb[k, :p]
                b = np.concatenate((xk, -w * xk))
                t = _statistic(ws, sigma2, rho) + c * np.concatenate((g, -w * g))
                sigma_mi = np.linalg.inv(fc.precision - c * np.outer(b, b))
                wyi = float(wy[i0 + k])
                mu_mi = sigma_mi @ (t - (c * (ui - wyi)) * b)
                m = wyi + float(b @ mu_mi)
                vi = max(float(b @ sigma_mi @ b) + one_m, one_m)
            un = _draw_halfline(m, vi, nonneg, unif, gen)
            deltas.append(un - ui)
            ul.append(un)
        gA += np.dot(deltas, Xb[:len(deltas)])
    u[:] = ul
    ws.xtu += gA[:p]
    return u


def sample_beta(fc: FullConditionalBeta, gen: np.random.Generator):
    """One joint draw of (beta1, beta2) from the cached full conditional."""
    eps = gen.standard_normal(fc.mu_beta.shape[0])
    draw = fc.mu_beta + fc.chol_inv.T @ eps
    p = draw.shape[0] // 2
    return draw[:p], draw[p:]


def _cross_quad(eta, phi, sigma2, rho) -> float:
    s = math.sqrt(sigma2)
    return float(np.sum(sigma2 * eta * eta - (2.0 * rho * s) * phi * eta + phi * phi))


def _rw_mh(cur, to_free, from_free, log_target, step, gen):
    """One random-walk Metropolis step for a scalar, taken on the free scale
    to_free(x) with a N(0, step^2) increment.

    log_target(x) is the log density of x plus the log Jacobian of from_free.
    A proposal whose log target is -inf is rejected: the log ratio is then
    -inf and log u never falls below it; so is one that overflows (math.exp
    beyond the float range), after drawing the same two variates.
    """
    try:
        prop = from_free(to_free(cur) + step * gen.standard_normal())
        log_ratio = log_target(prop) - log_target(cur)
    except OverflowError:
        prop, log_ratio = cur, -math.inf
    if math.log(max(gen.random(), 1e-300)) < log_ratio:
        return prop, True
    return cur, False


def _log_sigma2_target(sigma2, eta, phi, rho, n, prior: PriorConfig) -> float:
    """Log conditional of sigma^2 plus log sigma^2, the log Jacobian of exp.

    At rho = 0 the latent residuals enter only as the constant -eta'eta/2,
    which cancels in an MH ratio, so the rho-pinned chain runs this target too.
    """
    nu0 = prior.sigma2_prior_dof
    bracket = _cross_quad(eta, phi, sigma2, rho) / (1.0 - rho * rho) \
        + nu0 * prior.sigma2_prior_scale
    return -0.5 * (n + nu0) * math.log(sigma2) - bracket / (2.0 * sigma2)


def sample_sigma2_mh(state: ParameterState, ws: SamplerWorkspace, prior: PriorConfig,
                     step: float, gen: np.random.Generator):
    """Random-walk MH on log sigma^2."""
    n = ws.y.shape[0]
    return _rw_mh(state.sigma2, math.log, math.exp,
                  lambda s2: _log_sigma2_target(s2, ws.eta, ws.phi, state.rho, n, prior),
                  step, gen)


def _log_rho_target(rho, eta, phi, sigma2, n) -> float:
    """Log conditional of rho (flat prior on (-1, 1)) plus log(1 - rho^2), the
    log Jacobian of tanh; -inf where tanh has rounded rho to +-1."""
    one_m = 1.0 - rho * rho
    if one_m <= 0.0:
        return -math.inf
    return (1.0 - 0.5 * n) * math.log(one_m) \
        - _cross_quad(eta, phi, sigma2, rho) / (2.0 * sigma2 * one_m)


def sample_rho_mh(state: ParameterState, ws: SamplerWorkspace, step: float,
                  gen: np.random.Generator):
    """Random-walk MH on atanh(rho)."""
    n = ws.y.shape[0]
    return _rw_mh(state.rho, math.atanh, math.tanh,
                  lambda rho: _log_rho_target(rho, ws.eta, ws.phi, state.sigma2, n),
                  step, gen)


def sample_tau2(beta_k, orders: EffectOrders, r_k, prior: PriorConfig,
                gen: np.random.Generator) -> float:
    """Conjugate scaled-inv-chi^2 draw for one prior variance tau_k^2."""
    beta_k = np.asarray(beta_k, dtype=float)
    rpow = np.power(float(r_k), orders.orders.astype(float))
    quad = float(np.sum(beta_k * beta_k / rpow))
    p = beta_k.shape[0]
    dof = prior.nu + p
    scale = (quad + prior.nu * prior.delta_sq) / dof
    return float(sample_scaled_inv_chi2(dof, scale, gen))


def _log_r_target(r, beta_sq, orders_f, tau_sq, a, b) -> float:
    """Log conditional of r plus log r(1 - r), the log Jacobian of the inverse logit."""
    return (
        (a - 0.5 * float(orders_f.sum())) * math.log(r) + b * math.log1p(-r)
        - float(np.sum(beta_sq * np.power(r, -orders_f))) / (2.0 * tau_sq)
    )


def _expit_clamped(x: float) -> float:
    # keeps r strictly inside (0, 1) where the inverse logit rounds to 0 or 1
    return min(max(1.0 / (1.0 + math.exp(-x)), 1e-12), 1.0 - 1e-12)


def sample_r_mh(beta_k, tau_sq_k, orders: EffectOrders, prior: PriorConfig,
                step: float, gen: np.random.Generator, current: float):
    """Random-walk MH on logit(r) for one shrinkage decay parameter."""
    beta_sq = np.asarray(beta_k, dtype=float) ** 2
    orders_f = orders.orders.astype(float)
    cur = float(current)
    if not 0.0 < cur < 1.0:
        raise ValueError("current r must lie in (0, 1)")
    return _rw_mh(cur, lambda r: math.log(r) - math.log1p(-r), _expit_clamped,
                  lambda r: _log_r_target(r, beta_sq, orders_f, tau_sq_k, prior.a, prior.b),
                  step, gen)


def init_state(data: Dataset):
    """Initialization: one least-squares fit of X to [y, 2z - 1] for beta2 and
    beta1 (ridge where X has rank below p), the residual variance for sigma^2,
    sign-corrected link values for u, sample correlation for rho, and the
    hypers at _INITIAL_HYPER. A start that is not finite (data whose squares
    overflow) raises RuntimeError, as a numeric failure in a scan does; the
    overflow and invalid-value warnings numpy would print on the way, from
    here and corrcoef, are silenced, because that error names the failure."""
    X, y, z = data.X, data.y, data.z
    n, p = X.shape

    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.column_stack((y, 2.0 * z - 1.0))
        coef, _, rank, _ = np.linalg.lstsq(X, rhs, rcond=None)
        if rank < p:
            warnings.warn("X'X is singular; using ridge-regularized least squares",
                          RuntimeWarning)
            coef = np.linalg.solve(X.T @ X + 1e-6 * np.eye(p), X.T @ rhs)
        beta2, beta1 = coef.T.copy()
        resid = y - X @ beta2
        sigma2 = max(float(resid @ resid) / n, 1e-6)

        xb = X @ beta1
        mag = np.maximum(np.abs(xb), 1e-3)
        u0 = np.where(z == 1, mag, -mag)

        if np.std(u0) > 0 and np.std(y) > 0:
            rho0 = float(np.corrcoef(u0, y)[0, 1])
        else:
            rho0 = 0.0
    rho0 = min(max(rho0, -0.95), 0.95)

    start = {"beta1": beta1, "beta2": beta2, "sigma2": sigma2, "rho": rho0, "u": u0}
    for name, value in start.items():
        if not np.isfinite(value).all():
            raise RuntimeError(f"numeric failure at the start: {name} is not finite")
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
    conditional, the X'u drift check and the refresh of its mean, and u_sweep
    sample_u_sweep alone. Returns {target: accepted} for every MH move made."""
    v1, v2 = _prior_variances(orders, hyper)

    tic = time.perf_counter()
    fc = compute_beta_full_conditional(ws, state.sigma2, state.rho, v1, v2)
    sweep_tic = time.perf_counter()
    sample_u_sweep(state, fc, ws, rngs["u"])
    sweep_toc = time.perf_counter()
    xtu_ref = ws.X.T @ state.u
    err = np.linalg.norm(ws.xtu - xtu_ref)
    if err > 1e-8 * max(np.linalg.norm(xtu_ref), 1.0):
        raise RuntimeError("incremental X'u statistic drifted")
    ws.xtu = xtu_ref
    fc.mu_beta = fc.sigma_beta @ _statistic(ws, state.sigma2, state.rho)
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
    hyper.tau1_sq = sample_tau2(state.beta1, orders, hyper.r1, prior, rngs["tau1"])
    hyper.tau2_sq = sample_tau2(state.beta2, orders, hyper.r2, prior, rngs["tau2"])
    hyper.r1, hits["r1"] = sample_r_mh(state.beta1, hyper.tau1_sq, orders, prior,
                                       steps["r1"], rngs["r1"], current=hyper.r1)
    hyper.r2, hits["r2"] = sample_r_mh(state.beta2, hyper.tau2_sq, orders, prior,
                                       steps["r2"], rngs["r2"], current=hyper.r2)
    timings["hyper"] += time.perf_counter() - tic
    return hits


def run_chain(data: Dataset, orders: EffectOrders, prior: PriorConfig, cfg: ChainConfig) -> ChainOutput:
    """Full Gibbs run: init, then cfg.iterations scans of _iterate. MH steps
    adapt toward 0.35 acceptance during burn-in only; acceptances are counted
    and draws stored after it."""
    if data.n < 2:
        raise ValueError("need n >= 2 rows and p >= 1 columns")
    state, hyper = init_state(data)
    joint = not cfg.freeze_rho_at_zero
    if not joint:
        state.rho = 0.0

    rngs = {name: np.random.default_rng([cfg.seed, k]) for k, name in enumerate(
        ("u", "beta", "sigma2", "rho", "tau1", "tau2", "r1", "r2"), start=1)}
    ws = SamplerWorkspace.build(data, state)

    steps = {t: _INITIAL_STEP for t in _MH_TARGETS}
    counts = {t: (0, 0) for t in _MH_TARGETS}
    n_store = (cfg.iterations - cfg.burn_in) // cfg.thin
    draws = np.empty((n_store, 2 * data.p + len(SCALAR_NAMES)))
    timings = {"beta_fc": 0.0, "u_sweep": 0.0, "beta": 0.0, "sigma2_rho": 0.0, "hyper": 0.0}

    s_idx = 0
    for j in range(1, cfg.iterations + 1):
        try:
            hits = _iterate(state, hyper, ws, orders, prior, steps, rngs, joint, timings)
        except (IllConditionedError, PriorVarianceError, np.linalg.LinAlgError,
                FloatingPointError) as exc:
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
