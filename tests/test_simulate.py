import numpy as np
import pytest

from blqq.simulate import (
    BIRTH_COLUMNS,
    SimulationScenario,
    _draw_split,
    gen_ar1_covariance,
    gen_birth_records,
    gen_replicate,
    gen_sparse_coefficients,
)


def test_ar1_covariance_values():
    S = gen_ar1_covariance(4)
    assert S[0, 0] == 1.0
    assert S[0, 1] == 0.5
    assert S[0, 3] == 0.125
    assert np.array_equal(S, S.T)
    assert np.all(np.linalg.eigvalsh(S) > 0)
    with pytest.raises(ValueError):
        gen_ar1_covariance(0)


def test_sparse_coefficients_support_and_magnitudes():
    beta = gen_sparse_coefficients(10, 0.2, np.random.default_rng(0))
    nz = beta[beta != 0]
    assert nz.shape[0] == 2
    # |N(3,1)| magnitudes land well away from zero almost surely
    assert np.all(np.abs(nz) > 0.01)
    with pytest.raises(ValueError):
        gen_sparse_coefficients(10, 0.25, np.random.default_rng(0))


def test_sparse_coefficients_sign_balance():
    signs = []
    for k in range(400):
        beta = gen_sparse_coefficients(4, 0.25, np.random.default_rng(1000 + k))
        signs.append(np.sign(beta[beta != 0][0]))
    frac = np.mean(np.array(signs) > 0)
    assert 0.4 < frac < 0.6


def test_scenario_validates_sparsity():
    with pytest.raises(ValueError):
        SimulationScenario(p=10, sparsity=0.15)


@pytest.mark.parametrize("field, value", [
    ("rho_true", 1.5), ("rho_true", -1.0), ("rho_true", float("nan")),
    ("sigma2_true", 0.0), ("sigma2_true", -1.0), ("sigma2_true", float("nan")),
    ("sparsity", 1.5), ("sparsity", -0.2), ("sparsity", float("nan")), ("base_seed", -1)])
def test_scenario_validates_rho_and_sigma2(field, value):
    with pytest.raises(ValueError, match=field):
        SimulationScenario(p=10, **{field: value})


def latent_u(scenario, k, rep):
    """The latent u of replicate k's train and test splits, redrawn from its
    data stream [base_seed, k, 1]; the redrawn X and y must match rep's."""
    gen = np.random.default_rng([scenario.base_seed, k, 1])
    chol_x = np.linalg.cholesky(gen_ar1_covariance(scenario.p))
    us = []
    for data in (rep.train, rep.test):
        X, y, _, u = _draw_split(gen, data.n, scenario.p, chol_x, rep.beta1_true,
                                 rep.beta2_true, scenario.rho_true, scenario.sigma2_true)
        assert np.array_equal(X, data.X) and np.array_equal(y, data.y)
        us.append(u)
    return us


def test_replicate_shapes_and_consistency():
    scenario = SimulationScenario(p=10, sparsity=0.2, n_train=100, n_test=50)
    rep = gen_replicate(scenario, 0)
    assert rep.train.X.shape == (100, 10)
    assert rep.test.X.shape == (50, 10)
    assert np.count_nonzero(rep.beta1_true) == 2
    assert np.count_nonzero(rep.beta2_true) == 2
    u_train, u_test = latent_u(scenario, 0, rep)
    assert np.array_equal(rep.train.z, (u_train >= 0).astype(int))
    assert np.array_equal(rep.test.z, (u_test >= 0).astype(int))


def test_replicate_bit_identical_regeneration():
    scenario = SimulationScenario(base_seed=5)
    a = gen_replicate(scenario, 3)
    b = gen_replicate(scenario, 3)
    assert np.array_equal(a.train.X, b.train.X)
    assert np.array_equal(a.train.y, b.train.y)
    assert np.array_equal(a.beta1_true, b.beta1_true)
    c = gen_replicate(scenario, 4)
    assert not np.array_equal(a.train.X, c.train.X)


def test_coefficients_redrawn_or_fixed():
    varying = SimulationScenario(base_seed=6)
    a = gen_replicate(varying, 0)
    b = gen_replicate(varying, 1)
    assert not np.array_equal(a.beta1_true, b.beta1_true)
    fixed = SimulationScenario(base_seed=6, fix_coefficients=True)
    c = gen_replicate(fixed, 0)
    d = gen_replicate(fixed, 1)
    assert np.array_equal(c.beta1_true, d.beta1_true)
    assert not np.array_equal(c.train.X, d.train.X)


def test_replicate_seed_keys():
    # outputs stay byte-identical only while every stream keeps its seed key:
    # [base_seed, k, 0] for the coefficients, [base_seed, k, 1] for the data,
    # [base_seed, 2**32] for coefficients shared across replicates
    scenario = SimulationScenario(p=10, sparsity=0.2, n_train=20, n_test=5, base_seed=11)
    rep = gen_replicate(scenario, 3)
    coef = np.random.default_rng([11, 3, 0])
    assert np.array_equal(rep.beta1_true, gen_sparse_coefficients(10, 0.2, coef))
    assert np.array_equal(rep.beta2_true, gen_sparse_coefficients(10, 0.2, coef))
    z = np.random.default_rng([11, 3, 1]).standard_normal((20, 10))
    assert np.array_equal(rep.train.X, z @ np.linalg.cholesky(gen_ar1_covariance(10)).T)
    shared = gen_replicate(SimulationScenario(base_seed=11, fix_coefficients=True), 3)
    coef = np.random.default_rng([11, 2**32])
    assert np.array_equal(shared.beta1_true, gen_sparse_coefficients(10, 0.2, coef))


def test_replicate_population_moments():
    # large split: residual correlation, noise variance, predictor covariance
    scenario = SimulationScenario(p=4, sparsity=0.25, rho_true=0.7,
                                  sigma2_true=2.0, n_train=60_000, n_test=10,
                                  base_seed=7)
    rep = gen_replicate(scenario, 0)
    u_train, _ = latent_u(scenario, 0, rep)
    eta = u_train - rep.train.X @ rep.beta1_true
    phi = rep.train.y - rep.train.X @ rep.beta2_true
    assert np.corrcoef(eta, phi)[0, 1] == pytest.approx(0.7, abs=0.01)
    assert eta.var() == pytest.approx(1.0, abs=0.02)
    assert phi.var() == pytest.approx(2.0, abs=0.04)
    emp = np.cov(rep.train.X.T)
    assert np.allclose(emp, gen_ar1_covariance(4), atol=0.02)


def test_birth_records_schema_and_consistency():
    data = gen_birth_records(0, n=2000)
    assert data.columns == BIRTH_COLUMNS
    assert data.X.shape == (2000, 9)
    day = data.X[:, 0]
    assert day.min() >= 1 and day.max() <= 366
    for j in (1, 3, 4, 5, 6, 7, 8):
        assert set(np.unique(data.X[:, j])) <= {0.0, 1.0}
    age = data.X[:, 2]
    assert 14.0 <= age.min() and age.max() <= 50.0
    # plausible grams and a preterm rate in a sane band
    assert 2000 < data.y.mean() < 4500
    assert 0.2 < data.z.mean() < 0.8
    again = gen_birth_records(0, n=2000)
    assert np.array_equal(data.y, again.y)


def test_birth_records_negative_dependence():
    # with rho < 0 the preterm group should weigh less on average
    data = gen_birth_records(1, n=20_000, rho=-0.85)
    assert data.y[data.z == 1].mean() < data.y[data.z == 0].mean() - 100
