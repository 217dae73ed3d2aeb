"""Data model, parameter state, priors, and the joint likelihood.

The joint model ties a continuous response y and a binary response z through
a latent Gaussian U: z = 1 iff u >= 0, with (U, Y) bivariate normal given x
(unit latent variance, cross-covariance rho*sigma).
"""
from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .distributions import inverse_mills, std_normal_log_cdf


@dataclass
class Dataset:
    """Design matrix plus the paired continuous/binary responses.

    A prediction input may leave either response out (None); a dataset to fit
    has both, and run_chain asks for at least two rows.
    """

    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    columns: list = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
        if self.z is not None:
            self.z = np.asarray(self.z)
        if not np.all(np.isfinite(self.X)):
            raise ValueError("design matrix contains non-finite entries")
        if self.y is not None and not np.all(np.isfinite(self.y)):
            raise ValueError("y contains non-finite entries")
        if self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError("need n >= 1 rows and p >= 1 columns")
        if any(r is not None and r.shape[0] != self.X.shape[0] for r in (self.y, self.z)):
            raise ValueError("X, y, z row counts disagree")
        if self.z is not None:
            if not np.all(np.isin(self.z, (0, 1))):
                raise ValueError("z must contain only 0 and 1")
            self.z = self.z.astype(int)
        if self.columns is None:
            self.columns = [f"x{j + 1}" for j in range(self.X.shape[1])]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class ParameterState:
    """Current sampler state: regression coefficients, noise scale, latent u."""

    beta1: np.ndarray
    beta2: np.ndarray
    sigma2: float
    rho: float
    u: np.ndarray

    def __post_init__(self):
        self.beta1 = np.asarray(self.beta1, dtype=float)
        self.beta2 = np.asarray(self.beta2, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")


@dataclass
class EffectOrders:
    """Polynomial order of each model column (0 intercept, 1 linear, ...),
    with what the hyper moves read of them: the distinct orders as ints,
    each column's index into them, and the sum of all orders."""

    orders: np.ndarray
    levels: tuple = field(init=False)
    group: np.ndarray = field(init=False)
    order_sum: float = field(init=False)

    def __post_init__(self):
        self.orders = np.asarray(self.orders, dtype=int)
        if np.any(self.orders < 0):
            raise ValueError("effect orders must be nonnegative")
        levels, self.group = np.unique(self.orders, return_inverse=True)
        self.levels = tuple(levels.tolist())
        self.order_sum = float(self.orders.astype(float).sum())


@dataclass
class HyperState:
    tau1_sq: float
    tau2_sq: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.tau1_sq <= 0 or self.tau2_sq <= 0:
            raise ValueError("tau^2 values must be positive")
        if not (0.0 < self.r1 < 1.0 and 0.0 < self.r2 < 1.0):
            raise ValueError("r values must lie strictly inside (0, 1)")


@dataclass
class PriorConfig:
    """Hyperprior constants: Inv-chi^2(nu, delta^2) for tau^2, Beta(a, b) for r,
    and the weakly informative Inv-chi^2(0.001, 0.001) prior on sigma^2."""

    nu: float = 2.0
    delta_sq: float = 2.0
    a: float = 0.1
    b: float = 0.1
    sigma2_prior_dof: float = 0.001
    sigma2_prior_scale: float = 0.001

    def __post_init__(self):
        for name in ("nu", "delta_sq", "a", "b", "sigma2_prior_dof", "sigma2_prior_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ChainConfig:
    iterations: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    seed: int = 0
    # The separate-model baseline: rho pinned at 0 and never moved.
    freeze_rho_at_zero: bool = False

    def __post_init__(self):
        if self.iterations <= 0 or self.thin <= 0:
            raise ValueError("iterations and thin must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if (self.iterations - self.burn_in) // self.thin < 1:
            raise ValueError("iterations - burn_in must be at least thin, or no draw is stored")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def joint_log_likelihood(data: Dataset, params: ParameterState) -> float:
    """Log likelihood of (y, z) with the latent u integrated out."""
    rho = params.rho
    sigma2 = params.sigma2
    sigma = math.sqrt(sigma2)
    resid = data.y - data.X @ params.beta2
    s = (data.X @ params.beta1 + (rho / sigma) * resid) / math.sqrt(1.0 - rho * rho)
    ll_y = -0.5 * data.n * math.log(2.0 * math.pi * sigma2) - 0.5 * float(resid @ resid) / sigma2
    pos = data.z == 1
    ll_z = float(np.sum(std_normal_log_cdf(s[pos]))) + float(np.sum(std_normal_log_cdf(-s[~pos])))
    return ll_y + ll_z


SCALAR_NAMES = ("sigma2", "rho", "tau1_sq", "tau2_sq", "r1", "r2")


def draw_columns(p: int) -> list:
    """Column names of a draws matrix: both coefficient blocks, then the scalars."""
    return ([f"beta1_{j + 1}" for j in range(p)] + [f"beta2_{j + 1}" for j in range(p)]
            + list(SCALAR_NAMES))


@dataclass
class Draws:
    """Stored posterior draws: one C-ordered (S, 2p+6) matrix, one row per kept
    iteration, columns named by draw_columns(p). The coefficient blocks and the
    scalars read as column views of it."""

    draws: np.ndarray

    @property
    def p(self) -> int:
        return (self.draws.shape[1] - len(SCALAR_NAMES)) // 2

    @property
    def n_stored(self) -> int:
        return self.draws.shape[0]

    @property
    def names(self) -> list:
        return draw_columns(self.p)

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.names.index(name)]

    @property
    def beta1(self) -> np.ndarray:
        return self.draws[:, :self.p]

    @property
    def beta2(self) -> np.ndarray:
        return self.draws[:, self.p:2 * self.p]

    sigma2 = property(lambda self: self.column("sigma2"))
    rho = property(lambda self: self.column("rho"))
    tau1_sq = property(lambda self: self.column("tau1_sq"))
    tau2_sq = property(lambda self: self.column("tau2_sq"))
    r1 = property(lambda self: self.column("r1"))
    r2 = property(lambda self: self.column("r2"))


# predict_draws works on blocks of _CELLS // S test rows, so each (rows, S)
# buffer holds about _CELLS floats (2 MB) however many rows are predicted.
# Each row is still summed over all its draws at once, so everything after
# the products X @ beta.T is computed as for all rows together. The products
# are BLAS's: numpy hands a one-row product to gemv, which rounds differently
# from gemm, so no block has one row unless X has; and gemm itself may round
# a few cells differently with the number of rows when S is not a multiple
# of its column tile. The blocks run on a pool of one thread per CPU the
# process may use (BLAS, numpy and scipy.special release the GIL); each thread
# owns three (rows, S) buffers the calling thread allocated and takes blocks
# from one shared iterator until none is left.
# Which rows form a block does not depend on the thread count, so for a fixed
# BLAS thread count the outputs are the same bytes on any number of cores.
# The threads gain only when BLAS keeps off the other cores. On a 2-core
# x86_64 host, 1000 rows x 10,000 draws at p=30 took 0.75-0.85 s serial or
# threaded with OpenBLAS's default thread count, whose idle workers spin,
# and went from 0.75-1.0 s to 0.37-0.46 s with OPENBLAS_NUM_THREADS=1.
_CELLS = 1 << 18


def _workers(blocks: int) -> int:
    """Threads for predict_draws: one per CPU this process may run on, at
    most one per block, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(blocks, cpus))


def predict_draws(chain, X, y=None, z=None):
    """Posterior-mean predictions for every row of X.

    Each response is predicted conditionally on the other when it is
    observed: with y in hand, P(z=1|y,x) averages Phi of the probit score
    s(y|theta,x); with z in hand, E[y|z,x] adds the rho*sigma-scaled
    inverse Mills adjustment to x'beta2. When the other response is absent
    the marginal rules Phi(x'beta1) and x'beta2 apply. For a chain with
    rho pinned at 0 both forms coincide, so the separate-model baseline is
    untouched by the conditioning. The implied classifier is
    z_hat = 1 iff p_z1 >= 0.5.
    """
    b1t, b2t = chain.beta1.T, chain.beta2.T
    rho = np.asarray(chain.rho, dtype=float)
    sigma = np.sqrt(np.asarray(chain.sigma2, dtype=float))
    y_scale = rho / sigma                   # per draw
    root = np.sqrt(1.0 - rho * rho)
    mills_scale = rho * sigma
    if y is not None:
        y = np.asarray(y, dtype=float)[:, None]
    if z is not None:
        # E[eps1 | z]: inverse Mills ratio on the half-line z dictates,
        # +lambda(lin1) for z = 1 and -lambda(-lin1) for z = 0
        sign = np.where(np.asarray(z) == 1, 1.0, -1.0)[:, None]
    n, S = X.shape[0], rho.shape[0]
    y_hat, p_z1 = np.empty(n), np.empty(n)
    starts = list(range(0, n, max(2, _CELLS // S)))
    if len(starts) > 1 and n - starts[-1] == 1:     # a lone last row joins the block before
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [n]))
    width = max((hi - lo for lo, hi in blocks), default=0)
    todo = iter(blocks)         # next() on a list iterator is atomic under the GIL

    def predict_blocks(buffers):
        # takes blocks until none is left; every step writes into this
        # worker's buffers, in the operation order of the all-rows formula
        for lo, hi in todo:
            lin1, lin2, work = (b[:hi - lo] for b in buffers)
            rows = slice(lo, hi)
            np.matmul(X[rows], b1t, out=lin1)
            np.matmul(X[rows], b2t, out=lin2)
            if y is not None:
                np.subtract(y[rows], lin2, out=work)
                np.multiply(y_scale, work, out=work)
                np.add(lin1, work, out=work)
                np.divide(work, root, out=work)
                p_z1[rows] = special.ndtr(work, out=work).mean(axis=1)
            else:
                p_z1[rows] = special.ndtr(lin1, out=work).mean(axis=1)
            if z is not None:
                np.multiply(sign[rows], lin1, out=work)
                np.multiply(sign[rows], inverse_mills(work, out=work), out=work)
                np.multiply(mills_scale, work, out=work)
                y_hat[rows] = np.add(lin2, work, out=work).mean(axis=1)
            else:
                y_hat[rows] = lin2.mean(axis=1)

    workers = _workers(len(blocks))
    # np.errstate lives in a context variable, which new threads do not inherit
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, predict_blocks,
                               [np.empty((width, S)) for _ in range(3)])
                   for _ in range(workers)]
        for future in futures:
            future.result()
    z_hat = (p_z1 >= 0.5).astype(int)
    return y_hat, p_z1, z_hat
