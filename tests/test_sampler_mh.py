"""Single-site MH and conjugate kernels against closed forms and 1-D grid
posteriors computed from independently written densities."""
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import oracles
from blqq.model import Dataset, EffectOrders, HyperState, ParameterState, PriorConfig
from blqq.sampler import (
    SamplerWorkspace,
    _log_r_target,
    _log_rho_target,
    _log_sigma2_target,
    _order_sums,
    _prior_variances,
    _residual_quads,
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
    phi = ws.y - ws.X @ state.beta2
    scale = (float(phi @ phi)
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
        state.u = state.u + bump        # eta = u - X beta1 with beta1 = 0
        ws.refresh_residuals(state)
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
    eta, phi = state.u - ws.X @ state.beta1, ws.y - ws.X @ state.beta2
    logp = np.array([_rho_log_post(r, eta, phi, state.sigma2) for r in grid])
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
    sums = _order_sums(beta, orders)
    draw = sample_tau2(sums, orders, r, prior, np.random.default_rng(seed))
    q = np.random.default_rng(seed).chisquare(dof)
    assert draw == pytest.approx(dof * scale / q, rel=1e-12)
    # long-run mean dof*scale/(dof-2)
    rng = np.random.default_rng(8)
    draws = np.array([sample_tau2(sums, orders, r, prior, rng) for _ in range(100_000)])
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
    sums = _order_sums(beta, eff)
    draws = np.empty(60_000)
    for t in range(draws.shape[0]):
        cur, _ = sample_r_mh(sums, tau_sq, eff, prior, 0.8, rng, current=cur)
        draws[t] = cur
    assert draws[5000:].mean() == pytest.approx(grid_mean, abs=0.02)


def test_r_kernel_validates_current():
    prior = PriorConfig()
    eff = EffectOrders([1])
    with pytest.raises(ValueError):
        sample_r_mh(_order_sums(np.array([1.0]), eff), 0.5, eff, prior, 0.5,
                    np.random.default_rng(0), current=1.5)


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
        "r": (lambda rng: sample_r_mh(_order_sums(np.array([0.5, -0.2]), EffectOrders([1, 1])),
                                      0.5, EffectOrders([1, 1]), prior, 80.0, rng, current=0.3),
              lambda v: 0.0 < v < 1.0),
    }
    move, in_support = moves[kernel]
    for seed in range(200):
        val, _ = move(np.random.default_rng(seed))
        assert in_support(val), (seed, val)


def test_sigma2_proposal_beyond_float_range_is_rejected():
    # exp of a log-scale proposal above ~709.8 is not a float: the move is
    # rejected, as one whose target is -inf, after drawing its normal and its
    # uniform, so the stream stays in step with a move that did not overflow
    state, ws = fixed_residual_setup(sigma2=1e300, rho=0.0)
    prior = PriorConfig()
    overflowed = 0
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if math.log(1e300) + 80.0 * ref.standard_normal() < 710.0:
            continue
        overflowed += 1
        assert sample_sigma2_mh(state, ws, prior, 80.0, rng) == (1e300, False)
        ref.random()
        assert rng.random() == ref.random()
    assert overflowed >= 5


def _old_sigma2_target(sigma2, eta, phi, rho, prior):
    nu0 = prior.sigma2_prior_dof
    bracket = oracles.cross_quad(eta, phi, sigma2, rho) / (1.0 - rho * rho) \
        + nu0 * prior.sigma2_prior_scale
    return -0.5 * (eta.shape[0] + nu0) * math.log(sigma2) - bracket / (2.0 * sigma2)


def _old_rho_target(rho, eta, phi, sigma2):
    one_m = 1.0 - rho * rho
    return (1.0 - 0.5 * eta.shape[0]) * math.log(one_m) \
        - oracles.cross_quad(eta, phi, sigma2, rho) / (2.0 * sigma2 * one_m)


@pytest.mark.parametrize("seed", range(5))
def test_scalar_targets_match_vector_form(seed):
    # the targets read eta'eta, eta'phi and phi'phi once per refresh; they
    # must equal the vector form the targets used to evaluate on every call
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))
    eta = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
    phi = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    quads = _residual_quads(eta, phi)
    prior = PriorConfig()
    for sigma2, rho in zip(10.0 ** rng.uniform(-4, 4, 10), rng.uniform(-0.99, 0.99, 10)):
        assert _log_sigma2_target(sigma2, quads, rho, n, prior) == pytest.approx(
            _old_sigma2_target(sigma2, eta, phi, rho, prior), rel=1e-11)
        assert _log_rho_target(rho, quads, sigma2, n) == pytest.approx(
            _old_rho_target(rho, eta, phi, sigma2), rel=1e-11)


@pytest.mark.parametrize("scale", [1e153, 1e154])
def test_scalar_targets_near_float_max(scale):
    # at sigma2 ~ 1e306 and phi ~ 1e153, sigma2 eta'eta overflows, and at
    # phi ~ 1e154 phi'phi does too, while the targets are finite: compare
    # with 50-digit arithmetic
    rng = np.random.default_rng(12)
    eta = 3.0 + rng.standard_normal(4)
    phi = scale * np.array([1.7, -0.4, 1.1, -1.5])
    prior = PriorConfig()
    with np.errstate(over="raise"):
        quads = _residual_quads(eta, phi)
    with mpmath.workdps(50):
        e, f = [mpmath.mpf(v) for v in eta], [mpmath.mpf(v) for v in phi]
        for sigma2, rho in ((1e306, 0.3), (3.7e306, -0.8), (1e306, 0.0), (1e308, 0.5)):
            s2, r = mpmath.mpf(sigma2), mpmath.mpf(rho)
            quad = sum(s2 * a * a - 2 * r * mpmath.sqrt(s2) * a * b + b * b for a, b in zip(e, f))
            nu0, s0 = mpmath.mpf(prior.sigma2_prior_dof), mpmath.mpf(prior.sigma2_prior_scale)
            exact_s2 = -(4 + nu0) / 2 * mpmath.log(s2) - (quad / (1 - r * r) + nu0 * s0) / (2 * s2)
            exact_rho = (1 - mpmath.mpf(4) / 2) * mpmath.log(1 - r * r) - quad / (2 * s2 * (1 - r * r))
            assert _log_sigma2_target(sigma2, quads, rho, 4, prior) == pytest.approx(
                float(exact_s2), rel=1e-12)
            assert _log_rho_target(rho, quads, sigma2, 4) == pytest.approx(
                float(exact_rho), rel=1e-12)


def test_order_sums_match_power_forms():
    # the tau^2 draw, the r target and the prior variances read beta only
    # through one sum of squares per distinct order; at unequal orders they
    # must match the per-coefficient np.power forms they replace
    beta = np.array([0.7, -1.3, 0.4, 2.1, -0.05])
    orders = np.array([0, 1, 2, 2, 3])
    eff = EffectOrders(orders)
    r, tau_sq, prior = 0.37, 0.8, PriorConfig(a=1.5, b=0.7)
    levels, sums = zip(*_order_sums(beta, eff))
    sq = beta * beta
    assert levels == (0, 1, 2, 3)
    np.testing.assert_allclose(sums, [sq[0], sq[1], sq[2] + sq[3], sq[4]], rtol=1e-15)
    rpow = np.power(r, orders.astype(float))
    quad = float(np.sum(beta * beta / rpow))
    dof = prior.nu + beta.shape[0]
    q = np.random.default_rng(13).chisquare(dof)
    assert sample_tau2(_order_sums(beta, eff), eff, r, prior,
                       np.random.default_rng(13)) == pytest.approx(
        (quad + prior.nu * prior.delta_sq) / q, rel=1e-14)
    order_sum = eff.order_sum
    assert order_sum == 8.0
    old_r = ((prior.a - 0.5 * float(orders.sum())) * math.log(r) + prior.b * math.log1p(-r)
             - float(np.sum(beta * beta * np.power(r, -orders.astype(float)))) / (2.0 * tau_sq))
    assert _log_r_target(r, _order_sums(beta, eff), order_sum, tau_sq, prior.a, prior.b) \
        == pytest.approx(old_r, rel=1e-14)
    v1, v2 = _prior_variances(eff, HyperState(tau1_sq=tau_sq, tau2_sq=2.0, r1=r, r2=0.9))
    np.testing.assert_allclose(v1, tau_sq * rpow, rtol=1e-15)
    np.testing.assert_allclose(v2, 2.0 * np.power(0.9, orders.astype(float)), rtol=1e-15)
