"""The separate-model baseline must factorize exactly: with rho pinned at 0
the probit half of the chain cannot depend on y and the linear half cannot
depend on z."""
import numpy as np
import pytest

import oracles
from blqq.baselines import fit_sm_b
from blqq.model import ChainConfig, Dataset, EffectOrders, PriorConfig
from blqq.sampler import run_chain
from blqq.simulate import SimulationScenario, gen_replicate


def small_data(seed=0, n=60, p=3):
    scenario = SimulationScenario(p=p, sparsity=1.0 / p, rho_true=0.5,
                                  n_train=n, n_test=10, base_seed=seed)
    return gen_replicate(scenario, 0).train


CFG = ChainConfig(iterations=300, burn_in=100, seed=9)


def setup(data):
    return EffectOrders(np.ones(data.p, dtype=int)), PriorConfig()


def test_equals_frozen_joint_chain():
    data = small_data()
    orders, prior = setup(data)
    sep = fit_sm_b(data, orders, prior, CFG)
    from dataclasses import replace
    frozen = run_chain(data, orders, prior, replace(CFG, freeze_rho_at_zero=True))
    assert np.array_equal(sep.beta1, frozen.beta1)
    assert np.array_equal(sep.beta2, frozen.beta2)
    assert np.array_equal(sep.sigma2, frozen.sigma2)
    assert np.all(sep.rho == 0.0)


def test_probit_half_ignores_y():
    data = small_data(seed=1)
    orders, prior = setup(data)
    a = fit_sm_b(data, orders, prior, CFG)
    shifted = Dataset(data.X, data.y * 3.0 - 7.0, data.z)
    b = fit_sm_b(shifted, orders, prior, CFG)
    # probit sub-chain and its hyperparameters are bit-identical
    assert np.array_equal(a.beta1, b.beta1)
    assert np.array_equal(a.tau1_sq, b.tau1_sq)
    assert np.array_equal(a.r1, b.r1)
    assert np.array_equal(a.final_u, b.final_u)
    # while the linear sub-chain of course moved
    assert not np.array_equal(a.beta2, b.beta2)


def test_linear_half_ignores_z():
    data = small_data(seed=2)
    orders, prior = setup(data)
    a = fit_sm_b(data, orders, prior, CFG)
    flipped = Dataset(data.X, data.y, 1 - data.z)
    b = fit_sm_b(flipped, orders, prior, CFG)
    assert np.array_equal(a.beta2, b.beta2)
    assert np.array_equal(a.sigma2, b.sigma2)
    assert np.array_equal(a.tau2_sq, b.tau2_sq)
    assert np.array_equal(a.r2, b.r2)
    assert not np.array_equal(a.beta1, b.beta1)


def test_linear_half_matches_conjugate_posterior(monkeypatch):
    # with the hierarchy frozen the beta2 | y marginal has a tractable mean
    # once sigma2 is also frozen; check against the ridge formula
    data = small_data(seed=3, n=200, p=2)
    orders, prior = setup(data)
    cfg = ChainConfig(iterations=4000, burn_in=500, seed=4)
    oracles.pin_blocks(monkeypatch, "sigma2", "hyper", tau_sq=1.0, r=0.5)
    sep = fit_sm_b(data, orders, prior, cfg)
    sigma2 = sep.sigma2[0]  # frozen at its initial value
    assert np.all(sep.sigma2 == sigma2) and np.all(sep.tau2_sq == 1.0) and np.all(sep.r2 == 0.5)
    V2 = 1.0 * 0.5 * np.eye(2)  # tau2^2 * r^1 on linear columns
    A = np.linalg.inv(V2) + data.X.T @ data.X / sigma2
    mu = np.linalg.solve(A, data.X.T @ data.y / sigma2)
    sd = np.sqrt(np.diag(np.linalg.inv(A)))
    mc_se = sd / np.sqrt(sep.beta2.shape[0])
    assert np.all(np.abs(sep.beta2.mean(axis=0) - mu) < 6 * mc_se)
