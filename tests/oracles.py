"""Brute-force reference implementations used to check the fast paths.

Everything here materializes the full 2n-sized objects on purpose: these
oracles must stay independent of the shortcut formulas they validate.
sweep_loo_moments is the other side of the comparison: it reads the
leave-one-out moments off the sampler's own sweep. pin_blocks holds sampler
blocks fixed for the oracles that need part of the posterior conditioned on.
dense_predict is the all-rows prediction formula the row-blocked
predict_draws must reproduce, and scaled_condition the eigenvalue test of the
beta precision whose verdicts compute_beta_full_conditional must keep.
halfline_draws takes many draws of the sweep's own half-line sampler, and
cross_quad is the residual form the sigma^2 and rho targets must reproduce.
"""
import math

import numpy as np
from scipy import integrate, special, stats

import blqq.sampler as sampler_mod
from blqq.distributions import _draw_halfline, inverse_mills
from blqq.model import HyperState


def dense_blocks(X, sigma2, rho):
    n, p = X.shape
    s = np.sqrt(sigma2)
    Xfull = np.block([
        [X, np.zeros((n, p))],
        [np.zeros((n, p)), X],
    ])
    Sig_eps = np.block([
        [np.eye(n), rho * s * np.eye(n)],
        [rho * s * np.eye(n), sigma2 * np.eye(n)],
    ])
    return Xfull, Sig_eps


def dense_full_conditional(X, y, u, sigma2, rho, v1, v2):
    """mu_beta, sigma_beta by explicit 2n x 2n construction."""
    Xfull, Sig_eps = dense_blocks(X, sigma2, rho)
    Sinv = np.linalg.inv(Sig_eps)
    prior_inv = np.diag(np.concatenate([1.0 / v1, 1.0 / v2]))
    A = prior_inv + Xfull.T @ Sinv @ Xfull
    sigma_beta = np.linalg.inv(A)
    mu_beta = sigma_beta @ Xfull.T @ Sinv @ np.concatenate([u, y])
    return mu_beta, sigma_beta


def cross_quad(eta, phi, sigma2, rho):
    """sigma^2 eta'eta - 2 rho sigma eta'phi + phi'phi, the vector expression
    the sigma^2 and rho targets evaluated on every call before they read the
    workspace's scalar products."""
    s = np.sqrt(sigma2)
    return float(np.sum(sigma2 * eta * eta - (2.0 * rho * s) * phi * eta + phi * phi))


def dense_loo_conditional(X, y, u, sigma2, rho, v1, v2, i):
    """mu_beta_-i, sigma_beta_-i by deleting row i of the u-equation."""
    n, p = X.shape
    Xfull, Sig_eps = dense_blocks(X, sigma2, rho)
    keep = [k for k in range(2 * n) if k != i]
    Xm = Xfull[keep]
    Sm = Sig_eps[np.ix_(keep, keep)]
    Sinv = np.linalg.inv(Sm)
    prior_inv = np.diag(np.concatenate([1.0 / v1, 1.0 / v2]))
    A = prior_inv + Xm.T @ Sinv @ Xm
    sigma_mi = np.linalg.inv(A)
    resp = np.concatenate([np.delete(u, i), y])
    mu_mi = sigma_mi @ Xm.T @ Sinv @ resp
    return mu_mi, sigma_mi


def dense_loo_moments(X, y, u, sigma2, rho, v1, v2, i):
    """Leave-one-out predictive mean/variance of u_i from the dense route."""
    mu_mi, sigma_mi = dense_loo_conditional(X, y, u, sigma2, rho, v1, v2, i)
    s = np.sqrt(sigma2)
    w = rho / s
    b = np.concatenate([X[i], -w * X[i]])
    m = w * y[i] + b @ mu_mi
    v = b @ sigma_mi @ b + (1.0 - rho * rho)
    return m, v


def sweep_loo_moments(state, fc, ws, denom_floor=None, move=False):
    """(m_i, v_i) that sample_u_sweep hands to its half-line draw, for every i.

    The draw is replaced by a recorder. By default it returns the current
    u_i, so u and the statistic never move and every i conditions on the same
    u as the dense route. With move=True it returns u_i + 0.3 where z_i = 1
    and u_i - 0.3 where z_i = 0, which keeps every sign, so row i conditions
    on the moved u_1..u_{i-1} and the sweep's running statistic is exercised.
    denom_floor overrides the sampler's _DENOM_FLOOR (2.0 forces the
    fallback branch for every i).
    """
    u0 = state.u.copy()
    step = 0.3 if move else 0.0
    seen = []

    def record(m, t, uni, gen):
        seen.append((m, t * t))
        ui = u0[len(seen) - 1]
        return ui + step if t > 0 else ui - step

    saved = sampler_mod._draw_halfline, sampler_mod._DENOM_FLOOR
    sampler_mod._draw_halfline = record
    if denom_floor is not None:
        sampler_mod._DENOM_FLOOR = denom_floor
    try:
        sampler_mod.sample_u_sweep(state, fc, ws, np.random.default_rng(0))
    finally:
        sampler_mod._draw_halfline, sampler_mod._DENOM_FLOOR = saved
    m, v = np.array(seen).T
    return m, v


def halfline_draws(mean, var, nonnegative, gen, n):
    """n draws of N(mean, var) on the half-line, made as the sweep makes them:
    distributions._draw_halfline, with the signed standard deviation, on one
    batch of n uniforms."""
    t = math.sqrt(var) if nonnegative else -math.sqrt(var)
    return np.array([_draw_halfline(mean, t, uni, gen) for uni in gen.random(n).tolist()])


def scaled_condition(gram, sigma2, rho, v1, v2):
    """Eigenvalue ratio of the Jacobi-scaled beta precision, inf where it is
    not positive definite: the test compute_beta_full_conditional once ran on
    every precision, with the precision assembled as it assembles it."""
    p = gram.shape[0]
    s = np.sqrt(sigma2)
    one_m = 1.0 - rho * rho
    A = np.empty((2 * p, 2 * p))
    A[:p, :p] = (1.0 / one_m) * gram
    A[:p, :p][np.diag_indices(p)] += 1.0 / v1
    A[p:, p:] = (1.0 / (one_m * sigma2)) * gram
    A[p:, p:][np.diag_indices(p)] += 1.0 / v2
    A[:p, p:] = (-rho / (one_m * s)) * gram
    A[p:, :p] = A[:p, p:].T
    dinv = 1.0 / np.sqrt(np.diag(A))
    eigs = np.linalg.eigvalsh(A * np.outer(dinv, dinv))
    return np.inf if eigs[0] <= 0 else eigs[-1] / eigs[0]


def pin_blocks(monkeypatch, *blocks, beta=None, tau_sq=None, r=None):
    """Hold the named sampler blocks at their current values in run_chain.

    Each block sampler is replaced at its blqq.sampler global, where the scan
    looks it up, by a stub that returns the current value and draws nothing,
    so the blocks that still move consume their random streams as in a chain
    with no block pinned. Blocks: "u", "beta" (held at beta=(beta1, beta2)),
    "sigma2", "rho", and "hyper", the tau^2 draws and r moves, with the chain
    started and held at tau1^2 = tau2^2 = tau_sq and r1 = r2 = r (init_state
    is wrapped to start them there).
    """
    init_state = sampler_mod.init_state

    def init_pinned(data):
        state, _ = init_state(data)
        return state, HyperState(tau1_sq=tau_sq, tau2_sq=tau_sq, r1=r, r2=r)

    stubs = {
        "u": {"sample_u_sweep": lambda state, fc, ws, rng: state.u},
        "beta": {"sample_beta": lambda fc, ws, state, rng: beta},
        "sigma2": {"sample_sigma2_mh": lambda state, *args: (state.sigma2, False)},
        "rho": {"sample_rho_mh": lambda state, *args: (state.rho, False)},
        "hyper": {"init_state": init_pinned,
                  "sample_tau2": lambda *args: tau_sq,
                  "sample_r_mh": lambda *args, current: (current, False)},
    }
    for block in blocks:
        for name, stub in stubs[block].items():
            monkeypatch.setattr(sampler_mod, name, stub)


def quadrature_joint_loglik(X, y, z, beta1, beta2, sigma2, rho):
    """Per-observation numeric integration of the latent region probability."""
    s = np.sqrt(sigma2)
    total = 0.0
    for i in range(X.shape[0]):
        mean = np.array([X[i] @ beta1, X[i] @ beta2])
        cov = np.array([[1.0, rho * s], [rho * s, sigma2]])
        rv = stats.multivariate_normal(mean=mean, cov=cov)
        lo, hi = (0.0, np.inf) if z[i] == 1 else (-np.inf, 0.0)
        val, _ = integrate.quad(lambda uu: rv.pdf([uu, y[i]]), lo, hi)
        total += np.log(val)
    return total


def grid_quadrature_posterior_mean_beta(X, y, z, sigma2, rho, v1, v2, grid):
    """Posterior mean of (beta1, beta2) for p=1 by 2-D grid quadrature.

    Posterior ~ prior N(0, diag(v1, v2)) times the u-integrated likelihood.
    """
    from blqq.model import Dataset, ParameterState, joint_log_likelihood
    data = Dataset(X, y, z)
    logpost = np.empty((grid.size, grid.size))
    for a, b1 in enumerate(grid):
        for c, b2 in enumerate(grid):
            params = ParameterState(beta1=np.array([b1]), beta2=np.array([b2]),
                                    sigma2=sigma2, rho=rho,
                                    u=np.zeros(X.shape[0]))
            lp = joint_log_likelihood(data, params)
            lp += -0.5 * b1 * b1 / v1 - 0.5 * b2 * b2 / v2
            logpost[a, c] = lp
    w = np.exp(logpost - logpost.max())
    w /= w.sum()
    mean_b1 = float((w.sum(axis=1) * grid).sum())
    mean_b2 = float((w.sum(axis=0) * grid).sum())
    return mean_b1, mean_b2


def dense_predict(chain, X, y=None, z=None):
    """predict_draws with every (n, S) matrix formed at once, as it was before
    it worked on blocks of rows."""
    lin1 = X @ chain.beta1.T        # (n, S)
    lin2 = X @ chain.beta2.T
    rho = np.asarray(chain.rho, dtype=float)
    sigma = np.sqrt(np.asarray(chain.sigma2, dtype=float))
    if y is not None:
        s = (lin1 + (rho / sigma) * (np.asarray(y, dtype=float)[:, None] - lin2)) \
            / np.sqrt(1.0 - rho * rho)
        p_z1 = special.ndtr(s).mean(axis=1)
    else:
        p_z1 = special.ndtr(lin1).mean(axis=1)
    if z is not None:
        zcol = np.asarray(z)[:, None]
        # E[eps1 | z]: inverse Mills ratio on the half-line z dictates
        lam = np.where(zcol == 1, inverse_mills(lin1), -inverse_mills(-lin1))
        y_hat = (lin2 + (rho * sigma) * lam).mean(axis=1)
    else:
        y_hat = lin2.mean(axis=1)
    z_hat = (p_z1 >= 0.5).astype(int)
    return y_hat, p_z1, z_hat
