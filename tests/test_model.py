import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import oracles
from blqq import model
from blqq.model import (
    ChainConfig,
    Dataset,
    Draws,
    EffectOrders,
    HyperState,
    ParameterState,
    PriorConfig,
    joint_log_likelihood,
    predict_draws,
)


def make_params(beta1, beta2, sigma2, rho, n=0):
    return ParameterState(beta1=np.asarray(beta1, dtype=float),
                          beta2=np.asarray(beta2, dtype=float),
                          sigma2=sigma2, rho=rho, u=np.zeros(n))


def test_dataset_validation():
    X = np.array([[1.0, 0.5], [0.3, -1.0], [0.0, 2.0]])
    data = Dataset(X, [1.0, 2.0, 3.0], [0, 1, 1])
    assert data.n == 3 and data.p == 2
    assert data.columns == ["x1", "x2"]
    assert data.orders.orders.tolist() == [1, 1]       # effect orders default to 1
    assert Dataset(X, None, None, orders=EffectOrders([0, 2])).orders.orders.tolist() == [0, 2]
    with pytest.raises(ValueError):
        Dataset(X, [1.0, np.nan, 3.0], [0, 1, 1])
    with pytest.raises(ValueError):
        Dataset(X, [1.0, 2.0, 3.0], [0, 1, 2])
    with pytest.raises(ValueError):
        Dataset(X, [1.0, 2.0], [0, 1])
    assert Dataset(X[:1], [1.0], [0]).n == 1   # fitting needs n >= 2, predicting does not
    with pytest.raises(ValueError):
        Dataset(X[:0], [], [])


@pytest.mark.parametrize("orders, message", [
    ([1], "^1 effect orders given for 3 columns$"),
    ([1, 1, 1, 1], "^4 effect orders given for 3 columns$")], ids=["one-order", "four-orders"])
def test_dataset_checks_effect_orders(orders, message):
    # a Dataset holds one effect order per column, so run_chain and fit_sm_b
    # never see orders that do not match the design
    with pytest.raises(ValueError, match=message):
        Dataset(np.ones((4, 3)), None, None, orders=EffectOrders(orders))


def test_parameter_state_validation():
    with pytest.raises(ValueError):
        make_params([0.0], [0.0], -1.0, 0.0)
    with pytest.raises(ValueError):
        make_params([0.0], [0.0], 1.0, 1.0)


def test_hyper_state_validation():
    HyperState(0.5, 0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        HyperState(0.0, 0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        HyperState(0.5, 0.5, 1.0, 0.3)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(iterations=0)
    with pytest.raises(ValueError, match="no draw is stored"):
        ChainConfig(iterations=10, burn_in=5, thin=10)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        ChainConfig(seed=-3)


def test_joint_log_likelihood_matches_quadrature():
    rng = np.random.default_rng(0)
    n, p = 8, 2
    X = rng.standard_normal((n, p))
    beta1 = np.array([0.8, -0.4])
    beta2 = np.array([1.1, 0.6])
    y = X @ beta2 + rng.standard_normal(n)
    z = (rng.standard_normal(n) > 0).astype(int)
    data = Dataset(X, y, z)
    for rho, sigma2 in [(0.0, 1.0), (0.6, 2.0), (-0.8, 0.5)]:
        params = make_params(beta1, beta2, sigma2, rho, n=n)
        fast = joint_log_likelihood(data, params)
        slow = oracles.quadrature_joint_loglik(X, y, z, beta1, beta2, sigma2, rho)
        assert fast == pytest.approx(slow, rel=1e-7, abs=1e-7)


def test_joint_log_likelihood_extreme_scores_finite():
    # huge coefficients push the probit scores deep into the tails
    X = np.array([[1.0], [1.0], [-1.0]])
    data = Dataset(X, [0.0, 0.1, -0.2], [1, 0, 1])
    params = make_params([50.0], [0.0], 1.0, 0.0, n=3)
    assert np.isfinite(joint_log_likelihood(data, params))


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(nu=-1.0)


def draws_of(beta1, beta2, sigma2, rho):
    """A Draws matrix holding the given coefficient and sigma2/rho draws (hypers filled in)."""
    S = len(sigma2)
    hypers = np.tile([1.0, 1.0, 0.5, 0.5], (S, 1))
    return Draws(np.column_stack([beta1, beta2, sigma2, rho, hypers]))


def test_draws_column_views():
    chain = draws_of([[1.0, 2.0]], [[3.0, 4.0]], [5.0], [0.5])
    assert chain.p == 2 and chain.n_stored == 1
    assert chain.names == ["beta1_1", "beta1_2", "beta2_1", "beta2_2",
                           "sigma2", "rho", "tau1_sq", "tau2_sq", "r1", "r2"]
    assert chain.beta2.tolist() == [[3.0, 4.0]]
    assert chain.sigma2.tolist() == [5.0] and chain.r2.tolist() == [0.5]
    assert np.shares_memory(chain.rho, chain.draws)


def test_predict_degenerate_chain():
    # single draw: prediction is just the plug-in value
    chain = draws_of([[0.0, 1.0]], [[2.0, -1.0]], [1.0], [0.0])
    X = np.array([[1.0, 1.0]])
    for y, z in ((None, None), (np.array([0.3]), np.array([1]))):
        y_hat, p_z1, z_hat = predict_draws(chain, X, y=y, z=z)
        # rho = 0: observing the other response changes nothing
        assert y_hat[0] == pytest.approx(1.0)
        assert p_z1[0] == pytest.approx(stats.norm.cdf(1.0), rel=1e-12)
        assert z_hat[0] == 1


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 5), st.floats(-0.9, 0.9))
def test_predict_draws_shift_invariance(b2, y_val, sigma2, rho):
    # only the residual y - x'beta2 enters P(z=1 | y); shifting both leaves it unchanged
    X = np.array([[1.0]])
    base = draws_of([[0.7]], [[b2]], [sigma2], [rho])
    shifted = draws_of([[0.7]], [[b2 + 1.5]], [sigma2], [rho])
    _, p_base, _ = predict_draws(base, X, y=np.array([y_val]))
    _, p_shifted, _ = predict_draws(shifted, X, y=np.array([y_val + 1.5]))
    assert p_base[0] == pytest.approx(p_shifted[0], rel=1e-9, abs=1e-9)


def test_predict_averages_over_draws():
    chain = draws_of([[1.0], [-1.0]], [[2.0], [4.0]], [1.0, 1.0], [0.0, 0.0])
    y_hat, p_z1, _ = predict_draws(chain, np.array([[1.0]]))
    assert y_hat[0] == pytest.approx(3.0)
    assert p_z1[0] == pytest.approx(0.5, abs=1e-12)  # Phi(1) + Phi(-1) averages to 1/2


def random_draws(rng, S, p):
    return Draws(np.hstack([rng.standard_normal((S, 2 * p)), np.exp(rng.standard_normal((S, 1))),
                            np.tanh(rng.standard_normal((S, 1))), np.full((S, 4), 0.5)]))


@pytest.mark.parametrize("rows, n", [(8, 1), (8, 7), (8, 8), (8, 9), (8, 3 * 8 + 7),
                                     (2, 2), (2, 3), (2, 5)])
def test_predict_draws_blocks_match_dense(rows, n, monkeypatch):
    # rows test rows per block (two when the chain holds more than _CELLS
    # draws), run on 1, 2 and 3 worker threads. X and the coefficient draws
    # are small dyadic rationals, so every cell of X @ beta.T is exact
    # whatever order BLAS sums in; all the rest (the per-draw scalars, Phi,
    # the Mills ratio, each row's mean over its draws) must then give the
    # bytes of the all-rows formula
    S = model._CELLS // rows - 3 if rows > 2 else model._CELLS + 5
    rng = np.random.default_rng(n)
    chain = random_draws(rng, S, 3)
    chain.draws[:, :6] = rng.integers(-32, 33, (S, 6)) / 16.0
    X = rng.integers(-32, 33, (n, 3)) / 8.0
    y = 3.0 * rng.standard_normal(n)
    z = rng.integers(0, 2, n)
    for y_obs, z_obs in ((None, None), (y, None), (None, z), (y, z)):
        want = oracles.dense_predict(chain, X, y=y_obs, z=z_obs)
        for workers in (1, 2, 3):
            monkeypatch.setattr(model, "_workers", lambda blocks: min(blocks, workers))
            got = predict_draws(chain, X, y=y_obs, z=z_obs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), workers


def test_predict_draws_same_bytes_on_any_worker_count(monkeypatch):
    # S = 9999 is not a multiple of gemm's column tile, so the rounding of
    # X @ beta.T depends on the rows in a block; the partition into blocks
    # must not depend on the worker count, and neither may any output byte.
    # Three workers on frequent thread switches also stress the one block
    # iterator they share: a block lost would leave garbage in an output
    n, S = 1000, 9999
    rng = np.random.default_rng(9)
    chain = random_draws(rng, S, 7)
    X = rng.standard_normal((n, 7))
    y = 3.0 * rng.standard_normal(n)
    z = rng.integers(0, 2, n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for y_obs, z_obs in ((None, None), (y, None), (None, z), (y, z)):
            outs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(model, "_workers", lambda blocks: min(blocks, workers))
                outs.append(predict_draws(chain, X, y=y_obs, z=z_obs))
            for other in outs[1:]:
                assert all(g.tobytes() == w.tobytes() for g, w in zip(other, outs[0]))
    finally:
        sys.setswitchinterval(interval)


def test_predict_draws_memory_is_bounded(monkeypatch):
    # numpy reports its buffers to tracemalloc. Two workers own three
    # (rows, S) buffers each, allocated by the caller; nothing else of block
    # size may be formed, in the caller or in a worker
    monkeypatch.setattr(model, "_workers", lambda blocks: min(blocks, 2))
    n, S = 4000, 2000
    rows = model._CELLS // S
    rng = np.random.default_rng(0)
    chain = random_draws(rng, S, 5)
    X = rng.standard_normal((n, 5))
    y = rng.standard_normal(n)
    z = rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        predict_draws(chain, X, y=y, z=z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 3 * rows * S * 8 + (1 << 20)    # slack: half a block
    assert peak < bound, f"peak {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"


def test_predict_draws_block_error_propagates_from_workers(monkeypatch):
    # np.errstate reaches the blocks run on worker threads, and what a block
    # raises reaches the caller
    monkeypatch.setattr(model, "_workers", lambda blocks: min(blocks, 2))
    S = 600
    rng = np.random.default_rng(4)
    chain = random_draws(rng, S, 2)
    X = np.full((4 * model._CELLS // S, 2), 1e307)
    y = np.full(X.shape[0], 1.5e308)        # y - x'beta2 overflows in most cells
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            predict_draws(chain, X, y=y)
    with np.errstate(over="ignore", invalid="ignore"):
        predict_draws(chain, X, y=y)
