"""Simulation-study data generation: AR(1)-correlated predictors, sparse
coefficient vectors, and (u, y) drawn jointly from the bivariate normal model.

Also ships the synthetic birth-records-style generator used for the case
study workflow (the real data cannot be redistributed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset

# Seed key [base_seed, _SHARED_COEF_STREAM] of coefficients shared across replicates.
_SHARED_COEF_STREAM = 2**32


@dataclass
class SimulationScenario:
    p: int = 10
    sparsity: float = 0.2
    rho_true: float = 0.85
    n_train: int = 100
    n_test: int = 100
    sigma2_true: float = 2.0
    replicates: int = 50
    base_seed: int = 0
    # The coefficient vectors are redrawn for every replicate by default;
    # set fix_coefficients to share a single draw across replicates.
    fix_coefficients: bool = False

    def __post_init__(self):
        if not 0.0 <= self.sparsity <= 1.0:         # False for nan as well
            raise ValueError(f"sparsity must lie in [0, 1], got {self.sparsity}")
        k = self.sparsity * self.p
        if abs(k - round(k)) > 1e-9:
            raise ValueError("sparsity * p must be an integer")
        for name in ("p", "replicates", "n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not -1.0 < self.rho_true < 1.0:
            raise ValueError(f"rho_true must lie in (-1, 1), got {self.rho_true}")
        if not self.sigma2_true > 0.0:
            raise ValueError(f"sigma2_true must be > 0, got {self.sigma2_true}")


@dataclass
class GeneratedReplicate:
    train: Dataset
    test: Dataset
    beta1_true: np.ndarray
    beta2_true: np.ndarray
    rho_true: float
    sigma2_true: float


def gen_ar1_covariance(p: int) -> np.ndarray:
    """Predictor covariance with entries 0.5^|i-j|."""
    if p < 1:
        raise ValueError("p must be >= 1")
    idx = np.arange(p)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def gen_sparse_coefficients(p: int, s: float, gen: np.random.Generator) -> np.ndarray:
    """Coefficient vector with exactly s*p nonzeros at random positions; each
    nonzero is |N(3,1)| with an independent fair-coin sign."""
    k = s * p
    if abs(k - round(k)) > 1e-9:
        raise ValueError("s * p must be an integer")
    k = int(round(k))
    beta = np.zeros(p)
    support = gen.choice(p, size=k, replace=False)
    mags = np.abs(gen.normal(3.0, 1.0, size=k))
    signs = 2 * gen.integers(0, 2, size=k) - 1
    beta[support] = signs * mags
    return beta


def _draw_split(gen, n, p, chol_x, beta1, beta2, rho, sigma2):
    sigma = math.sqrt(sigma2)
    X = gen.standard_normal((n, p)) @ chol_x.T
    cov = np.array([[1.0, rho * sigma], [rho * sigma, sigma2]])
    chol_e = np.linalg.cholesky(cov)
    eps = gen.standard_normal((n, 2)) @ chol_e.T
    u = X @ beta1 + eps[:, 0]
    y = X @ beta2 + eps[:, 1]
    z = (u >= 0).astype(int)
    return X, y, z, u


def gen_replicate(scenario: SimulationScenario, k: int) -> GeneratedReplicate:
    """Generate replicate k; regenerating from (base_seed, k) is bit-identical."""
    seed = scenario.base_seed
    coef_gen = np.random.default_rng(
        [seed, _SHARED_COEF_STREAM] if scenario.fix_coefficients else [seed, k, 0])
    beta1 = gen_sparse_coefficients(scenario.p, scenario.sparsity, coef_gen)
    beta2 = gen_sparse_coefficients(scenario.p, scenario.sparsity, coef_gen)

    data_gen = np.random.default_rng([seed, k, 1])
    chol_x = np.linalg.cholesky(gen_ar1_covariance(scenario.p))
    Xtr, ytr, ztr, _ = _draw_split(data_gen, scenario.n_train, scenario.p, chol_x,
                                   beta1, beta2, scenario.rho_true, scenario.sigma2_true)
    Xte, yte, zte, _ = _draw_split(data_gen, scenario.n_test, scenario.p, chol_x,
                                   beta1, beta2, scenario.rho_true, scenario.sigma2_true)
    return GeneratedReplicate(
        train=Dataset(Xtr, ytr, ztr),
        test=Dataset(Xte, yte, zte),
        beta1_true=beta1,
        beta2_true=beta2,
        rho_true=scenario.rho_true,
        sigma2_true=scenario.sigma2_true,
    )


# --- synthetic birth-records-style dataset ---------------------------------

BIRTH_COLUMNS = [
    "day_of_birth", "weekend", "mother_age", "race_aa", "hispanic",
    "mother_hs_plus", "married", "male_infant", "first_pregnancy",
]

# Fixed, plausible standardized effects for the two outcomes.
_BIRTH_BETA1 = np.array([0.05, 0.02, -0.15, 0.35, 0.10, -0.25, -0.20, 0.05, 0.15])
_BIRTH_BETA2 = np.array([-0.03, 0.00, 0.10, -0.30, -0.05, 0.20, 0.15, 0.25, -0.10])

_BIRTH_MEAN_GRAMS = 3300.0
_BIRTH_SD_GRAMS = 450.0


def gen_birth_records(seed: int, n: int = 1000, rho: float = -0.85) -> Dataset:
    """Synthetic dataset with the birth-records schema: 9 covariates of the
    documented types, birth weight in grams as y, preterm indicator as z.

    The latent preterm propensity and the (standardized) birth weight share a
    bivariate normal residual with correlation rho, so a joint fit on the
    standardized response should recover a correlation near rho.
    """
    gen = np.random.default_rng(seed)
    day = gen.integers(1, 367, size=n).astype(float)
    weekend = gen.binomial(1, 2.0 / 7.0, size=n).astype(float)
    age = np.clip(gen.normal(28.0, 6.0, size=n), 14.0, 50.0)
    race = gen.binomial(1, 0.22, size=n).astype(float)
    hispanic = gen.binomial(1, 0.10, size=n).astype(float)
    educ = gen.binomial(1, 0.55, size=n).astype(float)
    married = gen.binomial(1, 0.60, size=n).astype(float)
    male = gen.binomial(1, 0.51, size=n).astype(float)
    parity = gen.binomial(1, 0.40, size=n).astype(float)
    X = np.column_stack([day, weekend, age, race, hispanic, educ, married, male, parity])

    Xs = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    sigma_std = 1.0
    cov = np.array([[1.0, rho * sigma_std], [rho * sigma_std, sigma_std**2]])
    eps = gen.standard_normal((n, 2)) @ np.linalg.cholesky(cov).T
    u = Xs @ _BIRTH_BETA1 + eps[:, 0]
    y_std = Xs @ _BIRTH_BETA2 + eps[:, 1]
    y = _BIRTH_MEAN_GRAMS + _BIRTH_SD_GRAMS * y_std
    z = (u >= 0).astype(int)
    return Dataset(X, y, z, columns=list(BIRTH_COLUMNS))
