"""Loss measures, credible-interval variable selection, and chain diagnostics."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .distributions import _pow2_scaled


@dataclass
class PosteriorSummary:
    """Per-parameter mean, sd, and equal-tailed 95% interval endpoints."""

    names: list
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q975: np.ndarray


@dataclass
class LossReport:
    rmse: float
    me: float
    fsl: int
    fp: int
    fn: int
    l2_beta1: float
    l2_beta2: float
    rho_hat: float


def summarize_draws(draws: np.ndarray, names) -> PosteriorSummary:
    """Summary of a (draws x parameters) matrix of post-burn-in samples."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] < 1:
        raise ValueError("no draws to summarize")
    q = np.quantile(draws, [0.025, 0.975], axis=0)
    scaled, e = _pow2_scaled(draws, axis=0)     # exact, each column's max |value| in [0.5, 1)
    if draws.shape[0] > 1:
        sd = np.ldexp(scaled.std(axis=0, ddof=1), e)
    else:
        sd = np.zeros(draws.shape[1])
    return PosteriorSummary(
        names=list(names),
        mean=np.ldexp(scaled.mean(axis=0), e),
        sd=sd,
        q025=q[0],
        q975=q[1],
    )


def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.size < 1:
        raise ValueError("inputs must be nonempty vectors of equal length")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def misclassification(z_true, z_pred) -> float:
    z_true = np.asarray(z_true)
    z_pred = np.asarray(z_pred)
    if z_true.shape != z_pred.shape:
        raise ValueError("inputs must have equal length")
    return float(np.mean(z_true != z_pred))


def l2_loss(beta_hat, beta_true) -> float:
    """Squared Euclidean distance between estimated and true coefficients."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    if beta_hat.shape != beta_true.shape:
        raise ValueError("inputs must have equal length")
    diff = beta_hat - beta_true
    return float(diff @ diff)


def select_via_ci(summary: PosteriorSummary) -> np.ndarray:
    """Coefficient selected iff its 95% interval excludes 0 (closed-interval
    convention: an endpoint exactly at 0 counts as containing 0)."""
    return ~((summary.q025 <= 0.0) & (0.0 <= summary.q975))


def fsl(selected, true_support):
    """False positives, false negatives, and their sum over a support vector."""
    selected = np.asarray(selected, dtype=bool)
    true_support = np.asarray(true_support, dtype=bool)
    if selected.shape != true_support.shape:
        raise ValueError("inputs must have equal length")
    fp = int(np.sum(selected & ~true_support))
    fn = int(np.sum(~selected & true_support))
    return fp, fn, fp + fn


def _autocorrelations(chain):
    """Yield the sample autocorrelations of chain at lags 1, 2, ... up to
    n - 1, each computed only when asked for (all 0 for a constant chain)."""
    n = chain.shape[0]
    chain, _ = _pow2_scaled(chain)      # the ratios are scale-free
    centered = chain - chain.mean()
    c0 = float(centered @ centered) / n
    for k in range(1, n):
        yield 0.0 if c0 == 0.0 else float(centered[:-k] @ centered[k:]) / n / c0


def acf(chain, max_lag: int) -> np.ndarray:
    """Sample autocorrelations for lags 0..max_lag (lag 0 is 1)."""
    chain = np.asarray(chain, dtype=float)
    if chain.shape[0] < 2 * max_lag:
        raise ValueError("need at least 2 * max_lag draws")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    out[1:] = list(islice(_autocorrelations(chain), max_lag))
    return out


def effective_sample_size(chain) -> float:
    """ESS via Geyer's initial-positive-sequence truncation of the ACF sum,
    over lags up to min(n/2 - 1, 1000); the autocorrelations are computed
    only up to the lag where the truncation stops.

    A zero-variance chain is reported as degenerate (ESS 1.0) with a warning
    rather than an error.
    """
    chain = np.asarray(chain, dtype=float)
    n = chain.shape[0]
    if n < 100:
        raise ValueError("need at least 100 draws")
    if chain.min() == chain.max():
        warnings.warn("constant chain: effective sample size is degenerate", RuntimeWarning)
        return 1.0
    max_lag = min(n // 2 - 1, 1000)
    rho = _autocorrelations(chain)
    # Sum consecutive-lag pairs while their sum stays positive.
    tau = 1.0
    m = 1
    while m + 1 <= max_lag:
        pair = next(rho) + next(rho)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 2
    ess = n / tau
    return float(min(max(ess, 1.0), n))
