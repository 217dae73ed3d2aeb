"""Full-conditional and leave-one-out formulas against the dense brute-force
construction that materializes the 2n x 2n error covariance."""
import warnings

import numpy as np
import pytest

import oracles
from blqq.model import Dataset, ParameterState
from blqq.sampler import (
    IllConditionedError,
    SamplerWorkspace,
    compute_beta_full_conditional,
    sample_beta,
    sample_u_sweep,
)
import blqq.sampler as sampler_mod


def random_instance(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n) * 2.0
    u = rng.standard_normal(n)
    z = (u >= 0).astype(int)
    sigma2 = float(rng.uniform(0.3, 4.0))
    rho = float(rng.uniform(-0.9, 0.9))
    v1 = rng.uniform(0.2, 3.0, size=p)
    v2 = rng.uniform(0.2, 3.0, size=p)
    return X, y, u, z, sigma2, rho, v1, v2


def full_conditional_mean(fc, ws, sigma2, rho):
    """fc's mean Sigma_beta t at ws.xtu, formed as the scan forms it."""
    return sampler_mod._beta_mean(fc.chol_inv, sampler_mod._statistic(ws, sigma2, rho))


def make_ws(X, y, u, z, sigma2=1.0, rho=0.0):
    p = X.shape[1]
    state = ParameterState(beta1=np.zeros(p), beta2=np.zeros(p),
                           sigma2=sigma2, rho=rho, u=u.copy())
    return SamplerWorkspace.build(Dataset(X, y, z), state), state


@pytest.mark.parametrize("seed,n,p", [(0, 12, 3), (1, 30, 5), (2, 8, 2), (3, 50, 1)])
def test_full_conditional_matches_dense(seed, n, p):
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(seed, n, p)
    ws, _ = make_ws(X, y, u, z)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    mu_d, sig_d = oracles.dense_full_conditional(X, y, u, sigma2, rho, v1, v2)
    assert np.allclose(full_conditional_mean(fc, ws, sigma2, rho), mu_d, rtol=1e-10, atol=1e-12)
    assert np.allclose(fc.chol_inv.T @ fc.chol_inv, sig_d, rtol=1e-9, atol=1e-12)
    # the u-sweep's p x p kernel E' Sigma_beta E, E = [I; -(rho/sigma) I]
    w = rho / np.sqrt(sigma2)
    E = np.vstack([np.eye(p), -w * np.eye(p)])
    assert np.allclose(sampler_mod._sweep_kernel(fc.chol_inv, w), E.T @ sig_d @ E,
                       rtol=1e-9, atol=1e-12)


def test_full_conditional_rejects_bad_args():
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(5, 10, 2)
    ws, _ = make_ws(X, y, u, z)
    with pytest.raises(ValueError):
        compute_beta_full_conditional(ws, -1.0, rho, v1, v2)
    with pytest.raises(ValueError):
        compute_beta_full_conditional(ws, sigma2, 1.0, v1, v2)


def test_ill_conditioned_raises():
    rng = np.random.default_rng(6)
    col = rng.standard_normal(10)
    X = np.column_stack([col, col])  # exactly collinear
    y = rng.standard_normal(10)
    u = rng.standard_normal(10)
    z = (u >= 0).astype(int)
    ws, _ = make_ws(X, y, u, z)
    huge = np.full(2, 1e16)  # prior cannot rescue the collinearity
    with pytest.raises(IllConditionedError) as exc:
        compute_beta_full_conditional(ws, 1.0, 0.5, huge, huge)
    assert exc.value.cond_estimate > 1e12


def test_conditioning_verdicts_match_eigenvalue_rule():
    # near-collinear X, prior variances from tiny to huge, r at its clamp and
    # rho near +-1: the full conditional is refused exactly where the
    # eigenvalue test of oracles.scaled_condition exceeds _COND_LIMIT, with
    # its estimate, and no RuntimeWarning escapes, also where Cholesky fails
    rng = np.random.default_rng(61)
    verdicts = {"accepted": 0, "refused": 0, "cholesky failed": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(600):
            n, p = int(rng.integers(2, 30)), int(rng.integers(1, 7))
            X = rng.standard_normal((n, p))
            for j in range(1, p):          # a copy of column 0, exact or perturbed
                if rng.random() < 0.5:
                    X[:, j] = X[:, 0] + (rng.random() < 0.5) * 10.0 ** rng.uniform(-12, 0) \
                        * rng.standard_normal(n)
            u = rng.standard_normal(n)
            ws, _ = make_ws(X, rng.standard_normal(n), u, (u >= 0).astype(int))
            v1 = np.full(p, 1e-13) if rng.random() < 0.2 else 10.0 ** rng.uniform(-14, 20, p)
            v2 = 10.0 ** rng.uniform(-14, 20, p)
            sigma2, rho = 10.0 ** rng.uniform(-3, 3), rng.uniform(-0.9999, 0.9999)
            cond = oracles.scaled_condition(ws.gram, sigma2, rho, v1, v2)
            if cond <= sampler_mod._COND_LIMIT:
                compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
                verdicts["accepted"] += 1
                continue
            with pytest.raises(IllConditionedError) as exc:
                compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
            assert exc.value.cond_estimate == cond
            verdicts["refused"] += 1
            verdicts["cholesky failed"] += isinstance(exc.value.__context__,
                                                      np.linalg.LinAlgError)
    assert verdicts["accepted"] > 300
    assert verdicts["refused"] > verdicts["cholesky failed"] > 10


@pytest.mark.parametrize("seed,n,p", [(10, 10, 2), (11, 25, 4), (12, 6, 1)])
def test_loo_downdate_matches_dense(seed, n, p):
    # the leave-one-out (m_i, v_i) the sweep draws from, in its closed-form
    # branch and with its fallback branch forced, against the dense route
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(seed, n, p)
    dense = np.array([oracles.dense_loo_moments(X, y, u, sigma2, rho, v1, v2, i)
                      for i in range(n)]).T
    for floor, fallbacks in ((None, 0), (2.0, n)):
        ws, state = make_ws(X, y, u, z, sigma2, rho)
        fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
        moments = oracles.sweep_loo_moments(state, fc, ws, denom_floor=floor)
        assert np.allclose(moments, dense, rtol=1e-8, atol=1e-10)
        assert ws.loo_fallbacks == fallbacks
        assert np.array_equal(state.u, u)


_BLOCK = sampler_mod._BLOCK


@pytest.mark.parametrize("seed,n,p,with_fallback", [
    (14, _BLOCK - 3, 3, False),             # one short block
    (20, _BLOCK, 3, False),                 # exactly one whole block
    (15, 2 * _BLOCK + 3, 4, False),         # a ragged last block
    (16, 2 * _BLOCK + 3, 4, True),          # the fallback fires in mid-block
    (21, 2 * _BLOCK + 3, 4, "block-edges"), # and at the first and last rows of blocks
])
def test_loo_moments_while_u_moves(seed, n, p, with_fallback):
    # the recorder moves every u_i, so row i's moments depend on the sweep's
    # running statistic over u_1..u_{i-1}, within and across blocks
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(seed, n, p)
    # a whole block's first row and the ragged last block's first and last rows
    edges = [_BLOCK, 2 * _BLOCK, n - 1]
    if with_fallback == "block-edges":
        X[edges] *= 30.0                    # high leverage: the smallest denominators
    ws, state = make_ws(X, y, u, z, sigma2, rho)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    floor, fallback_rows = None, []
    if with_fallback:
        # a floor between the k-th and (k+1)-th smallest of the closed form's
        # denominators: the middle two, or just above the edge rows'
        k = len(edges) if with_fallback == "block-edges" else n // 2
        denom = _denominators(X, fc, sigma2, rho)
        lower, upper = np.sort(denom)[k - 1:k + 1]
        floor = 0.5 * (lower + upper)
        fallback_rows = np.flatnonzero(denom < floor)
        if with_fallback == "block-edges":
            assert fallback_rows.tolist() == edges and n % _BLOCK != 0
        else:
            assert any(i % _BLOCK not in (0, _BLOCK - 1) for i in fallback_rows)
    _check_moving_sweep(X, y, u, z, sigma2, rho, v1, v2, ws, state, fc, floor,
                        len(fallback_rows))


@pytest.mark.parametrize("seed", [17, 18, 19])
def test_loo_moments_mixed_fallback_rows(seed):
    # a floor drawn between the smallest and largest denominator sends a
    # random mix of rows to the fallback; each row, whichever branch it takes,
    # reads its own entries of the block kernel, so the closed-form rows after
    # a fallback row in its block must still match the dense route
    n, p = 3 * _BLOCK + 5, 5
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(seed, n, p)
    ws, state = make_ws(X, y, u, z, sigma2, rho)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    denom = _denominators(X, fc, sigma2, rho)
    floor = np.random.default_rng(seed).uniform(denom.min(), denom.max())
    fallback = denom < floor
    # some block holds a fallback row followed by a closed-form row
    assert any(fallback[i] and not fallback[i + 1]
               for i in range(n - 1) if i % _BLOCK != _BLOCK - 1)
    _check_moving_sweep(X, y, u, z, sigma2, rho, v1, v2, ws, state, fc, floor,
                        int(fallback.sum()))


def _denominators(X, fc, sigma2, rho):
    """1 - c b_i' Sigma_beta b_i, the closed form's denominator for every row."""
    b = np.hstack([X, -(rho / np.sqrt(sigma2)) * X])
    return 1.0 - np.einsum("ij,jk,ik->i", b, fc.chol_inv.T @ fc.chol_inv, b) / (1.0 - rho * rho)


def _check_moving_sweep(X, y, u, z, sigma2, rho, v1, v2, ws, state, fc, floor, fallbacks):
    """Run the recorder sweep with every u_i moved and compare each row's
    moments with the dense route conditioned on the moved u_1..u_{i-1}."""
    n = X.shape[0]
    moments = oracles.sweep_loo_moments(state, fc, ws, denom_floor=floor, move=True)
    moved = u + np.where(z == 1, 0.3, -0.3)
    dense = np.array([
        oracles.dense_loo_moments(X, y, np.concatenate([moved[:i], u[i:]]),
                                  sigma2, rho, v1, v2, i)
        for i in range(n)]).T
    assert np.allclose(moments, dense, rtol=1e-8, atol=1e-10)
    assert ws.loo_fallbacks == fallbacks
    assert np.array_equal(state.u, moved)
    assert np.allclose(ws.xtu, X.T @ moved, rtol=1e-10, atol=1e-10)


def test_sweep_respects_signs_and_statistic():
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(40, 40, 4)
    ws, state = make_ws(X, y, u, z, sigma2, rho)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    out = sample_u_sweep(state, fc, ws, np.random.default_rng(99))
    assert out is state.u
    assert np.all(out[z == 1] >= 0)
    assert np.all(out[z == 0] < 0)
    # incremental X'u must agree with a fresh cross-product
    assert np.allclose(ws.xtu, X.T @ out, rtol=1e-10, atol=1e-10)
    assert ws.loo_fallbacks == 0


def test_sweep_deterministic_under_seed():
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(41, 20, 2)
    outs = []
    for _ in range(2):
        ws, state = make_ws(X, y, u, z, sigma2, rho)
        fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
        outs.append(sample_u_sweep(state, fc, ws, np.random.default_rng(7)).copy())
    assert np.array_equal(outs[0], outs[1])


def test_sweep_tail_branch_runs():
    # u_0's leave-one-out mean lies far above 0 while z_0 = 0, so its draw
    # takes the alpha >= 5 tail branch inside a real sweep
    rng = np.random.default_rng(43)
    n = 30
    X = rng.uniform(1.0, 3.0, size=(n, 1))
    u = 10.0 * X[:, 0] + 0.1 * rng.standard_normal(n)
    u[0] = -0.5
    z = (u >= 0).astype(int)
    y = rng.standard_normal(n)
    sigma2, rho, v = 1.0, 0.3, np.full(1, 100.0)
    ws, state = make_ws(X, y, u, z, sigma2, rho)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v, v)
    m, var = oracles.sweep_loo_moments(state, fc, ws)
    assert m[0] / np.sqrt(var[0]) > 5.0 and z[0] == 0
    outs = []
    for _ in range(2):
        ws, state = make_ws(X, y, u, z, sigma2, rho)
        fc = compute_beta_full_conditional(ws, sigma2, rho, v, v)
        outs.append(sample_u_sweep(state, fc, ws, np.random.default_rng(9)).copy())
        assert np.all((outs[-1] >= 0) == (z == 1))
        # the tail draw lies just below 0 (excess ~ sd/alpha), not at the
        # nudge that replaces an exact 0
        assert -1.0 < outs[-1][0] < -1e-12
        assert np.allclose(ws.xtu, X.T @ outs[-1], rtol=1e-10, atol=1e-10)
    assert np.array_equal(outs[0], outs[1])


def test_overflowed_gram_is_ill_conditioned():
    # X'X of a design scaled by 1e200 overflows to inf and its precision to
    # inf and nan; the verdict must be IllConditionedError with cond inf, not
    # a ValueError from the linear algebra
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(7, 30, 3)
    with np.errstate(all="ignore"):
        ws, _ = make_ws(1e200 * X, y, u, z)
        with pytest.raises(IllConditionedError) as exc:
            compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    assert exc.value.cond_estimate == np.inf


def test_full_conditional_tiny_prior_variance():
    # a prior variance of 1e-13 (r at its 1e-12 clamp) makes the raw precision's
    # condition number ~1e13 but its Jacobi-scaled one modest; the full
    # conditional must still be built, and match the dense route
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(13, 3, 1)
    v1 = np.full(1, 1e-13)
    ws, _ = make_ws(X, y, u, z)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    mu_d, sig_d = oracles.dense_full_conditional(X, y, u, sigma2, rho, v1, v2)
    assert np.allclose(full_conditional_mean(fc, ws, sigma2, rho), mu_d, rtol=1e-8, atol=1e-14)
    assert np.allclose(fc.chol_inv.T @ fc.chol_inv, sig_d, rtol=1e-8, atol=1e-20)


def test_sweep_fallback_branch_runs(monkeypatch):
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(42, 10, 2)
    ws, state = make_ws(X, y, u, z, sigma2, rho)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    monkeypatch.setattr(sampler_mod, "_DENOM_FLOOR", 2.0)
    out = sample_u_sweep(state, fc, ws, np.random.default_rng(8))
    assert ws.loo_fallbacks == 10
    assert np.all((out >= 0) == (z == 1))
    assert np.allclose(ws.xtu, X.T @ out, rtol=1e-10, atol=1e-10)


def test_sample_beta_mean_and_covariance():
    X, y, u, z, sigma2, rho, v1, v2 = random_instance(50, 20, 2)
    ws, _ = make_ws(X, y, u, z)
    fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
    fc.mu_beta = full_conditional_mean(fc, ws, sigma2, rho)
    rng = np.random.default_rng(51)
    draws = np.array([np.concatenate(sample_beta(fc, rng)) for _ in range(40_000)])
    assert np.allclose(draws.mean(axis=0), fc.mu_beta, atol=0.01)
    assert np.allclose(np.cov(draws.T), fc.chol_inv.T @ fc.chol_inv, atol=0.01)
