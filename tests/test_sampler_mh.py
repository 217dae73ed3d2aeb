"""Single-site MH and conjugate kernels against closed forms and 1-D grid
posteriors computed from independently written densities."""
import math

import numpy as np
import pytest
from scipy import stats

from blqq.model import Dataset, EffectOrders, HyperState, ParameterState, PriorConfig
from blqq.sampler import (
    SamplerWorkspace,
    _prior_variances,
    sample_r_mh,
    sample_rho_mh,
    sample_sigma2_mh,
    sample_tau2,
)


def fixed_residual_setup(seed=0, n=60, p=2, sigma2=1.5, rho=0.4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    u = rng.standard_normal(n)
    y = rng.standard_normal(n)
    z = (u >= 0).astype(int)
    state = ParameterState(beta1=np.zeros(p), beta2=np.zeros(p),
                           sigma2=sigma2, rho=rho, u=u.copy())
    ws = SamplerWorkspace.build(Dataset(X, y, z), state)
    return state, ws


def test_sigma2_kernel_matches_conjugate_at_rho_zero():
    # with rho = 0 the conditional is scaled inverse chi-square in closed form
    state, ws = fixed_residual_setup(rho=0.0)
    prior = PriorConfig()
    rng = np.random.default_rng(1)
    n = ws.y.shape[0]
    draws = np.empty(60_000)
    for t in range(draws.shape[0]):
        val, _ = sample_sigma2_mh(state, ws, prior, 0.8, rng)
        state.sigma2 = val
        draws[t] = val
    dof = n + prior.sigma2_prior_dof
    scale = (float(ws.phi @ ws.phi)
             + prior.sigma2_prior_dof * prior.sigma2_prior_scale) / dof
    exact_mean = dof * scale / (dof - 2.0)
    assert draws[5000:].mean() == pytest.approx(exact_mean, rel=0.02)
    cdf = lambda x: 1.0 - stats.chi2.cdf(dof * scale / x, dof)
    assert stats.kstest(draws[5000:], cdf).statistic < 0.02


def test_sigma2_separate_target_ignores_latent_residuals():
    # at rho = 0 the latent residuals enter the target only as a constant that
    # cancels in the MH ratio: shifting eta must give identical decisions
    prior = PriorConfig()
    chains = []
    for bump in (0.0, 5.0):
        state, ws = fixed_residual_setup(rho=0.0)
        ws.eta = ws.eta + bump
        rng = np.random.default_rng(2)
        vals = []
        for _ in range(200):
            val, _ = sample_sigma2_mh(state, ws, prior, 0.5, rng)
            state.sigma2 = val
            vals.append(val)
        chains.append(vals)
    assert chains[0] == chains[1]


def _rho_log_post(rho, eta, phi, sigma2):
    # independent oracle: per-pair bivariate normal density, flat prior
    s = math.sqrt(sigma2)
    cov = np.array([[1.0, rho * s], [rho * s, sigma2]])
    rv = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)
    return float(np.sum(rv.logpdf(np.column_stack([eta, phi]))))


def test_rho_kernel_matches_grid_posterior():
    state, ws = fixed_residual_setup(seed=3, n=80, rho=0.2, sigma2=2.0)
    grid = np.linspace(-0.999, 0.999, 4001)
    logp = np.array([_rho_log_post(r, ws.eta, ws.phi, state.sigma2) for r in grid])
    w = np.exp(logp - logp.max())
    w /= w.sum()
    grid_mean = float(w @ grid)
    grid_sd = float(np.sqrt(w @ (grid - grid_mean) ** 2))

    rng = np.random.default_rng(4)
    draws = np.empty(60_000)
    for t in range(draws.shape[0]):
        val, _ = sample_rho_mh(state, ws, 0.5, rng)
        state.rho = val
        draws[t] = val
    kept = draws[5000:]
    assert kept.mean() == pytest.approx(grid_mean, abs=0.02)
    assert kept.std() == pytest.approx(grid_sd, rel=0.1)


def test_rho_kernel_stays_in_open_interval():
    state, ws = fixed_residual_setup(seed=5)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        val, _ = sample_rho_mh(state, ws, 2.0, rng)
        state.rho = val
        assert -1.0 < val < 1.0


def test_prior_variances_pattern():
    orders = EffectOrders([0, 1, 1, 2])
    v1, v2 = _prior_variances(orders, HyperState(tau1_sq=1.0, tau2_sq=2.0, r1=0.5, r2=0.25))
    assert np.allclose(v1, [1.0, 0.5, 0.5, 0.25])
    assert np.allclose(v2, [2.0, 0.5, 0.5, 0.125])
    # the hypers it reads are validated where they are made
    with pytest.raises(ValueError):
        HyperState(tau1_sq=1.0, tau2_sq=1.0, r1=1.5, r2=0.5)
    with pytest.raises(ValueError):
        HyperState(tau1_sq=-1.0, tau2_sq=1.0, r1=0.5, r2=0.5)


def test_tau2_conjugate_closed_form():
    beta = np.array([1.0, -2.0, 0.5])
    orders = EffectOrders([0, 1, 2])
    prior = PriorConfig(nu=2.0, delta_sq=2.0)
    r = 0.5
    # hand computation of the posterior dof and scale
    quad = 1.0 / 0.5**0 + 4.0 / 0.5**1 + 0.25 / 0.5**2
    dof = 2.0 + 3.0
    scale = (quad + 2.0 * 2.0) / dof
    seed = 7
    draw = sample_tau2(beta, orders, r, prior, np.random.default_rng(seed))
    q = np.random.default_rng(seed).chisquare(dof)
    assert draw == pytest.approx(dof * scale / q, rel=1e-12)
    # long-run mean dof*scale/(dof-2)
    rng = np.random.default_rng(8)
    draws = np.array([sample_tau2(beta, orders, r, prior, rng) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(dof * scale / (dof - 2.0), rel=0.05)


def _r_log_post(r, beta, orders, tau_sq, a, b):
    # independent oracle: normal prior slices times the Beta density
    sd = np.sqrt(tau_sq * np.power(r, orders.astype(float)))
    return float(np.sum(stats.norm.logpdf(beta, scale=sd))
                 + stats.beta.logpdf(r, a, b))


def test_r_kernel_matches_grid_posterior():
    beta = np.array([0.8, -0.3, 0.1, 0.05])
    orders = np.array([0, 1, 1, 2])
    eff = EffectOrders(orders)
    prior = PriorConfig(a=2.0, b=2.0)
    tau_sq = 0.5
    grid = np.linspace(1e-4, 1 - 1e-4, 4001)
    logp = np.array([_r_log_post(r, beta, orders, tau_sq, 2.0, 2.0) for r in grid])
    w = np.exp(logp - logp.max())
    w /= w.sum()
    grid_mean = float(w @ grid)

    rng = np.random.default_rng(9)
    cur = 0.3
    draws = np.empty(60_000)
    for t in range(draws.shape[0]):
        cur, _ = sample_r_mh(beta, tau_sq, eff, prior, 0.8, rng, current=cur)
        draws[t] = cur
    assert draws[5000:].mean() == pytest.approx(grid_mean, abs=0.02)


def test_r_kernel_validates_current():
    prior = PriorConfig()
    eff = EffectOrders([1])
    with pytest.raises(ValueError):
        sample_r_mh(np.array([1.0]), 0.5, eff, prior, 0.5, np.random.default_rng(0), current=1.5)


def test_kernels_accept_and_reject():
    # with a sane step both outcomes occur
    state, ws = fixed_residual_setup(seed=10)
    prior = PriorConfig()
    rng = np.random.default_rng(11)
    flags = []
    for _ in range(500):
        val, acc = sample_sigma2_mh(state, ws, prior, 0.8, rng)
        state.sigma2 = val
        flags.append(acc)
    assert any(flags) and not all(flags)


@pytest.mark.parametrize("kernel", ["sigma2", "rho", "r"])
def test_kernels_survive_step_ceiling(kernel):
    # at the adaptation ceiling (step 80) many proposals land on the edge of
    # the support once mapped back (tanh rounds rho to +-1); such a proposal
    # must be rejected, and no move may raise or leave its support
    state, ws = fixed_residual_setup(n=20, sigma2=1.0, rho=0.5)
    prior = PriorConfig()
    moves = {
        "sigma2": (lambda rng: sample_sigma2_mh(state, ws, prior, 80.0, rng),
                   lambda v: v > 0.0),
        "rho": (lambda rng: sample_rho_mh(state, ws, 80.0, rng),
                lambda v: -1.0 < v < 1.0),
        "r": (lambda rng: sample_r_mh(np.array([0.5, -0.2]), 0.5, EffectOrders([1, 1]),
                                      prior, 80.0, rng, current=0.3),
              lambda v: 0.0 < v < 1.0),
    }
    move, in_support = moves[kernel]
    for seed in range(200):
        val, _ = move(np.random.default_rng(seed))
        assert in_support(val), (seed, val)
