import time
import warnings

import numpy as np
import pytest

import blqq.sampler as sampler_mod
from blqq.distributions import _draw_halflines
from blqq.metrics import effective_sample_size
from blqq.model import ChainConfig, Dataset, EffectOrders, HyperState, ParameterState, PriorConfig
from blqq.sampler import _INITIAL_STEP, SamplerWorkspace, _iterate, init_state, run_chain
from blqq.simulate import SimulationScenario, gen_replicate


def small_data(seed=0, n=60, p=3, rho=0.5):
    scenario = SimulationScenario(p=p, sparsity=1.0 / p, rho_true=rho,
                                  n_train=n, n_test=10, base_seed=seed)
    rep = gen_replicate(scenario, 0)
    return rep.train


@pytest.mark.parametrize("case, message", [("no-y", "both responses"), ("no-z", "both responses")])
def test_run_chain_checks_arguments(case, message):
    # a dataset that cannot be fit is an invalid argument, rejected before the
    # start, not a numeric failure deep in the chain (a Dataset itself rejects
    # effect orders that do not match its columns: tests/test_model.py)
    data = small_data(n=20)
    if case == "no-y":
        data = Dataset(data.X, None, data.z)
    elif case == "no-z":
        data = Dataset(data.X, data.y, None)
    with pytest.raises(ValueError, match=message):
        run_chain(data, PriorConfig(), ChainConfig(iterations=20, burn_in=5))


def test_init_state_basics():
    data = small_data()
    state, hyper = init_state(data)
    # u starts on the side its z dictates
    assert np.all((state.u >= 0) == (data.z == 1))
    assert -0.95 <= state.rho <= 0.95
    assert state.sigma2 > 0
    # beta2 equals the least squares fit on a full-rank design
    lstsq = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    assert np.allclose(state.beta2, lstsq)
    assert hyper.tau1_sq == 0.5 and hyper.r1 == 0.3


@pytest.mark.parametrize("case", ["z-all-0", "z-all-1", "separated", "n-below-p"])
def test_init_state_edge_cases(case):
    # a constant or perfectly separated z, or fewer rows than columns, still
    # gives a finite start with each u on the side its z dictates, and no
    # RuntimeWarning on the way
    rng = np.random.default_rng(1)
    n, p = (3, 5) if case == "n-below-p" else (20, 2)
    X = rng.standard_normal((n, p))
    z = {"z-all-0": np.zeros(n), "z-all-1": np.ones(n)}.get(case, X[:, 0] > 0)
    data = Dataset(X, rng.standard_normal(n), z.astype(int))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state, _ = init_state(data)
    for value in (state.beta1, state.beta2, state.sigma2, state.rho, state.u):
        assert np.all(np.isfinite(value))
    assert np.all((state.u >= 0) == (data.z == 1))


def test_init_state_singular_design_is_min_norm():
    # where X has rank below p the start is lstsq's minimum-norm solution,
    # taken without a warning
    rng = np.random.default_rng(2)
    col = rng.standard_normal(20)
    u = rng.standard_normal(20)
    data = Dataset(np.column_stack([col, col]), rng.standard_normal(20),
                   (u >= 0).astype(int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, _ = init_state(data)
    # a ridge fit on X'X + 1e-6 I sits 4.4e-9 away, far outside this tolerance
    np.testing.assert_allclose(state.beta2, np.linalg.lstsq(data.X, data.y, rcond=None)[0],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_init_state_rho_on_tiny_y(scale):
    # the start correlation is taken with y scaled by a power of two, so it
    # does not depend on the scale of y: squares of y near 1e-200 would
    # underflow and clamp rho at 0.95, with a divide-by-zero warning
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 3))
    y = X @ [1.0, 0.5, 0.0] + rng.standard_normal(30)
    z = (X @ [1.0, -1.0, 0.0] + rng.standard_normal(30) > 0).astype(int)
    want = init_state(Dataset(X, y, z))[0].rho
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = init_state(Dataset(X, scale * y, z))[0].rho
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert abs(want) < 0.9


def run_small(data, **kw):
    cfg = ChainConfig(iterations=kw.pop("iterations", 300),
                      burn_in=kw.pop("burn_in", 100), **kw)
    return run_chain(data, PriorConfig(), cfg)


def test_chain_shapes_and_bookkeeping():
    data = small_data()
    out = run_small(data, iterations=250, burn_in=50, thin=2)
    assert out.n_stored == 100
    assert out.beta1.shape == (100, data.p)
    assert out.beta2.shape == (100, data.p)
    for t in ("sigma2", "rho", "r1", "r2"):
        assert t in out.acceptance
        acc, prop = out.accept_counts[t]
        assert prop == 200 and 0 <= acc <= prop
        assert 1e-3 <= out.steps[t] <= 80.0
    assert np.all(out.sigma2 > 0)
    assert np.all(np.abs(out.rho) < 1)
    assert np.all((out.final_u >= 0) == (data.z == 1))
    assert out.loo_fallbacks == 0
    assert set(out.timings) == {"beta_fc", "u_sweep", "beta", "sigma2_rho", "hyper"}


def test_timing_buckets_keep_the_full_conditional_out_of_the_sweep(monkeypatch):
    # a full conditional slowed by 20 ms per call shows in beta_fc only;
    # u_sweep times sample_u_sweep alone
    data = small_data(seed=3)
    slow, real = 0.02, sampler_mod.compute_beta_full_conditional

    def slow_full_conditional(*args):
        time.sleep(slow)
        return real(*args)

    monkeypatch.setattr(sampler_mod, "compute_beta_full_conditional", slow_full_conditional)
    out = run_chain(data, PriorConfig(), ChainConfig(iterations=5, burn_in=0, seed=1))
    assert out.timings["beta_fc"] >= 5 * slow
    assert out.timings["u_sweep"] < slow


def test_chain_deterministic_under_seed():
    data = small_data(seed=3)
    a = run_small(data, seed=42)
    b = run_small(data, seed=42)
    assert np.array_equal(a.beta1, b.beta1)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.final_u, b.final_u)
    c = run_small(data, seed=43)
    assert not np.array_equal(a.rho, c.rho)


def test_iterate_by_hand_reproduces_run_chain():
    # the scan is the seam a test can drive one step at a time: from the same
    # start, streams and (unadapted) steps, it must give the chain's own draws
    data, prior = small_data(seed=3), PriorConfig()
    cfg = ChainConfig(iterations=50, burn_in=0, seed=42)
    out = run_chain(data, prior, cfg)

    state, hyper = init_state(data)
    ws = SamplerWorkspace.build(data, state)
    rngs = {name: np.random.default_rng([cfg.seed, k]) for k, name in enumerate(
        ("u", "beta", "sigma2", "rho", "tau1", "tau2", "r1", "r2"), start=1)}
    steps = dict.fromkeys(("sigma2", "rho", "r1", "r2"), _INITIAL_STEP)
    timings = dict.fromkeys(("beta_fc", "u_sweep", "beta", "sigma2_rho", "hyper"), 0.0)
    rows = []
    for _ in range(cfg.iterations):
        _iterate(state, hyper, ws, data.orders, prior, steps, rngs, True, timings)
        rows.append(np.concatenate((state.beta1, state.beta2, (
            state.sigma2, state.rho, hyper.tau1_sq, hyper.tau2_sq, hyper.r1, hyper.r2))))
    assert np.array_equal(np.array(rows), out.draws)
    assert np.array_equal(state.u, out.final_u)


def _u_step(data, seed):
    """(state, ws, gen) after one sample_u_sweep call from the chain's start,
    gen the generator it drew from."""
    state, hyper = init_state(data)
    ws = SamplerWorkspace.build(data, state)
    fc = sampler_mod.compute_beta_full_conditional(
        ws, state.sigma2, state.rho, *sampler_mod._prior_variances(data.orders, hyper))
    gen = np.random.default_rng(seed)
    sampler_mod.sample_u_sweep(state, fc, ws, gen)
    return state, ws, gen


def test_u_step_dispatches_on_the_row_count(monkeypatch):
    # above _SWEEP_MAX_N rows u is one draw given beta; at it, the sweep
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 20)
    data = small_data(seed=8, n=21)
    state, ws, gen = _u_step(data, 5)
    w = state.rho / np.sqrt(state.sigma2)
    m = data.X @ state.beta1 + w * (data.y - data.X @ state.beta2)
    sd = np.sqrt(1.0 - state.rho ** 2)
    twin = np.random.default_rng(5)
    want = _draw_halflines(m, np.where(data.z == 1, sd, -sd), twin.random(21), twin)
    assert state.u.tobytes() == want.tobytes()
    assert gen.random() == twin.random()
    assert ws.xtu.tobytes() == (data.X.T @ state.u).tobytes()
    assert ws.loo_fallbacks == 0

    # at 20 rows the sweep's draws, not the draw given beta
    data = small_data(seed=8, n=20)
    got = _u_step(data, 5)[0].u
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 10**9)
    assert got.tobytes() == _u_step(data, 5)[0].u.tobytes()
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 19)
    assert not np.array_equal(got, _u_step(data, 5)[0].u)

    # and a chain on the draw of u given beta repeats byte for byte
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 20)
    data = small_data(seed=8, n=21)
    a = run_small(data, iterations=60, burn_in=20, seed=3)
    b = run_small(data, iterations=60, burn_in=20, seed=3)
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.final_u.tobytes() == b.final_u.tobytes()


@pytest.mark.parametrize("freeze_rho", [False, True], ids=["joint", "rho-pinned"])
def test_tall_scan_keeps_its_cached_products(monkeypatch, freeze_rho):
    # the draw of u given beta reads X beta1 and phi = y - X beta2 off the
    # workspace instead of forming them: after every scan they, and X'u,
    # must be what a fresh product of the state gives, byte for byte
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 20)
    data = small_data(seed=8, n=21)
    real, scans = sampler_mod._iterate, []

    def checked(state, hyper, ws, *args):
        hits = real(state, hyper, ws, *args)
        X = data.X
        assert ws.xb1.tobytes() == (X @ state.beta1).tobytes()
        assert ws.phi.tobytes() == (data.y - X @ state.beta2).tobytes()
        assert ws.xtu.tobytes() == (X.T @ state.u).tobytes()
        scans.append(1)
        return hits

    monkeypatch.setattr(sampler_mod, "_iterate", checked)
    run_small(data, iterations=30, burn_in=10, seed=4, freeze_rho_at_zero=freeze_rho)
    assert len(scans) == 30


def test_freeze_rho_at_zero():
    data = small_data(seed=5)
    out = run_small(data, freeze_rho_at_zero=True)
    assert np.all(out.rho == 0.0)


def test_chain_recovers_strong_correlation():
    data = small_data(seed=6, n=150, rho=0.85)
    out = run_small(data, iterations=1500, burn_in=500)
    assert out.rho.mean() == pytest.approx(0.85, abs=0.2)


def test_burnin_only_adaptation():
    # post-burn-in the sampler is a fixed kernel: rerunning the identical
    # config must reproduce the stored draws although the steps adapted
    data = small_data(seed=7)
    a = run_small(data)
    b = run_small(data)
    assert np.array_equal(a.sigma2, b.sigma2)


def test_tiny_chain_survives_r_at_its_clamp():
    # n=3, p=1 under the default Beta(0.1, 0.1) prior on r: r reaches its
    # 1e-12 clamp, which scales the precision badly without making it
    # singular; the chain must run to the end with finite draws
    prior = PriorConfig()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((3, 1)), rng.standard_normal(3), np.array([1, 0, 1]))
        out = run_chain(data, prior, ChainConfig(iterations=2000, burn_in=1000, seed=seed))
        assert np.all(np.isfinite(out.draws)), seed


# Geweke (2004), "Getting it right", JASA 99:799. One scan leaves the
# posterior of (theta, u) given (y, z) invariant, and a fresh draw of
# (u, y, z) given theta leaves the joint of (theta, u, y, z) invariant, so
# alternating the two from a draw of the prior keeps theta's marginal at the
# prior. The seed, the scan count, the prior sample size and the bound were
# fixed before the test was first run: |z| <= 4 over twelve test functions
# is about one false alarm in 1000 runs under normality.
_GEWEKE_SEED = 2
_GEWEKE_SCANS = 30_000
_GEWEKE_PRIOR_DRAWS = 100_000
_GEWEKE_BOUND = 4.0


def _geweke_prior(prior, orders, size, gen):
    """size independent draws of (beta1, beta2, sigma2, rho, tau1^2, tau2^2,
    r1, r2) from the prior, the beta blocks as (size, p) arrays."""
    tau_sq = prior.nu * prior.delta_sq / gen.chisquare(prior.nu, (2, size))
    r = gen.beta(prior.a, prior.b, (2, size))
    beta = np.sqrt(tau_sq[..., None] * r[..., None] ** orders) * gen.standard_normal(
        (2, size, len(orders)))
    sigma2 = (prior.sigma2_prior_dof * prior.sigma2_prior_scale
              / gen.chisquare(prior.sigma2_prior_dof, size))
    rho = gen.uniform(-1.0, 1.0, size)
    return beta[0], beta[1], sigma2, rho, tau_sq[0], tau_sq[1], r[0], r[1]


def _geweke_functions(beta1, beta2, sigma2, rho, tau1_sq, tau2_sq, r1, r2):
    """The twelve test functions, one column each, one row per draw."""
    atan11 = np.arctan(beta1[:, 0])
    return np.column_stack([
        rho, rho ** 2, np.log(sigma2), np.log(tau1_sq), np.log(tau2_sq), r1, r2,
        atan11, np.arctan(beta1[:, 1]) ** 2, np.arctan(beta2[:, 0]) ** 2,
        np.arctan(beta1[:, 0] * beta2[:, 0]), rho * atan11])


def _geweke_data(X, state, gen):
    """(u, y, z) given the parameters: (u_i, y_i) bivariate normal about
    (x_i'beta1, x_i'beta2) with variances 1 and sigma2 and correlation rho."""
    e1, e2 = gen.standard_normal((2, X.shape[0]))
    u = X @ state.beta1 + e1
    y = X @ state.beta2 + np.sqrt(state.sigma2) * (
        state.rho * e1 + np.sqrt(1.0 - state.rho ** 2) * e2)
    return u, y, (u >= 0).astype(int)


def test_whole_sampler_keeps_the_prior():
    # the u-step is the sweep: n=5 is below the sweep's row limit
    _check_whole_sampler_keeps_the_prior()


def test_whole_sampler_keeps_the_prior_with_u_drawn_given_beta(monkeypatch):
    # with the sweep's row limit at 0 the u-step is the draw of u given beta
    monkeypatch.setattr(sampler_mod, "_SWEEP_MAX_N", 0)
    _check_whole_sampler_keeps_the_prior()


def _check_whole_sampler_keeps_the_prior():
    # successive-conditional simulation on n=5, p=2 with effect orders (1, 2)
    # and fixed MH steps; each test function's mean over the scans is
    # compared with its mean over independent prior draws, the scans' variance
    # taken over their effective sample size
    orders = EffectOrders([1, 2])
    prior = PriorConfig(nu=6, delta_sq=1, a=1, b=1, sigma2_prior_dof=5, sigma2_prior_scale=1)
    X = np.random.default_rng(_GEWEKE_SEED).standard_normal((5, 2))
    gen = np.random.default_rng([_GEWEKE_SEED, 9])
    start = [v[0] for v in _geweke_prior(prior, orders.orders, 1, gen)]
    state = ParameterState(*start[:4], u=np.zeros(5))
    hyper = HyperState(*start[4:])
    rngs = {name: np.random.default_rng([_GEWEKE_SEED, k]) for k, name in enumerate(
        ("u", "beta", "sigma2", "rho", "tau1", "tau2", "r1", "r2"), start=1)}
    steps = {"sigma2": 1.0, "rho": 1.0, "r1": 3.0, "r2": 3.0}
    timings = dict.fromkeys(("beta_fc", "u_sweep", "beta", "sigma2_rho", "hyper"), 0.0)
    rows = np.empty((_GEWEKE_SCANS, 10))
    for m in range(_GEWEKE_SCANS):
        state.u, y, z = _geweke_data(X, state, gen)
        ws = SamplerWorkspace.build(Dataset(X, y, z), state)
        _iterate(state, hyper, ws, orders, prior, steps, rngs, True, timings)
        rows[m] = (*state.beta1, *state.beta2, state.sigma2, state.rho,
                   hyper.tau1_sq, hyper.tau2_sq, hyper.r1, hyper.r2)
    scans = _geweke_functions(rows[:, 0:2], rows[:, 2:4], *rows[:, 4:].T)
    draws = _geweke_functions(*_geweke_prior(
        prior, orders.orders, _GEWEKE_PRIOR_DRAWS, np.random.default_rng([_GEWEKE_SEED, 10])))
    ess = np.array([effective_sample_size(col) for col in scans.T])
    zs = (scans.mean(axis=0) - draws.mean(axis=0)) / np.sqrt(
        scans.var(axis=0) / ess + draws.var(axis=0) / _GEWEKE_PRIOR_DRAWS)
    print("\nGeweke z:", np.array2string(zs, precision=2), "ESS min", round(ess.min()))
    assert np.all(np.abs(zs) <= _GEWEKE_BOUND), zs
