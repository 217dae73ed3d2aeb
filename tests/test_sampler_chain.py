import time
import warnings

import numpy as np
import pytest

import blqq.sampler as sampler_mod
from blqq.model import ChainConfig, Dataset, EffectOrders, PriorConfig
from blqq.sampler import _INITIAL_STEP, SamplerWorkspace, _iterate, init_state, run_chain
from blqq.simulate import SimulationScenario, gen_replicate


def small_data(seed=0, n=60, p=3, rho=0.5):
    scenario = SimulationScenario(p=p, sparsity=1.0 / p, rho_true=rho,
                                  n_train=n, n_test=10, base_seed=seed)
    rep = gen_replicate(scenario, 0)
    return rep.train


def default_setup(data):
    return EffectOrders(np.ones(data.p, dtype=int)), PriorConfig()


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


def run_small(data, **kw):
    orders, prior = default_setup(data)
    cfg = ChainConfig(iterations=kw.pop("iterations", 300),
                      burn_in=kw.pop("burn_in", 100), **kw)
    return run_chain(data, orders, prior, cfg)


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
    orders, prior = default_setup(data)
    slow, real = 0.02, sampler_mod.compute_beta_full_conditional

    def slow_full_conditional(*args):
        time.sleep(slow)
        return real(*args)

    monkeypatch.setattr(sampler_mod, "compute_beta_full_conditional", slow_full_conditional)
    out = run_chain(data, orders, prior, ChainConfig(iterations=5, burn_in=0, seed=1))
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
    data = small_data(seed=3)
    orders, prior = default_setup(data)
    cfg = ChainConfig(iterations=50, burn_in=0, seed=42)
    out = run_chain(data, orders, prior, cfg)

    state, hyper = init_state(data)
    ws = SamplerWorkspace.build(data, state)
    rngs = {name: np.random.default_rng([cfg.seed, k]) for k, name in enumerate(
        ("u", "beta", "sigma2", "rho", "tau1", "tau2", "r1", "r2"), start=1)}
    steps = dict.fromkeys(("sigma2", "rho", "r1", "r2"), _INITIAL_STEP)
    timings = dict.fromkeys(("beta_fc", "u_sweep", "beta", "sigma2_rho", "hyper"), 0.0)
    rows = []
    for _ in range(cfg.iterations):
        _iterate(state, hyper, ws, orders, prior, steps, rngs, True, timings)
        rows.append(np.concatenate((state.beta1, state.beta2, (
            state.sigma2, state.rho, hyper.tau1_sq, hyper.tau2_sq, hyper.r1, hyper.r2))))
    assert np.array_equal(np.array(rows), out.draws)
    assert np.array_equal(state.u, out.final_u)


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
    orders, prior = EffectOrders([1]), PriorConfig()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((3, 1)), rng.standard_normal(3), np.array([1, 0, 1]))
        out = run_chain(data, orders, prior, ChainConfig(iterations=2000, burn_in=1000, seed=seed))
        assert np.all(np.isfinite(out.draws)), seed
