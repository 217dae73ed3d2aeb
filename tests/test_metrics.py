import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blqq.distributions import _pow2_scaled
from blqq.metrics import (
    acf,
    effective_sample_size,
    fsl,
    l2_loss,
    misclassification,
    rmse,
    select_via_ci,
    summarize_draws,
)


def test_rmse_hand_value():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(
        np.sqrt(4.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_misclassification_hand_value():
    assert misclassification([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.25)
    assert misclassification([1, 1], [1, 1]) == 0.0


def test_l2_loss_is_squared_norm():
    assert l2_loss([1.0, 0.0], [0.0, 2.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        l2_loss([1.0], [1.0, 2.0])


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
def test_rmse_zero_iff_equal(vals):
    v = np.array(vals)
    assert rmse(v, v) == 0.0


def test_summarize_and_select():
    rng = np.random.default_rng(3)
    n = 40_000
    draws = np.column_stack([
        rng.normal(5.0, 1.0, n),    # clearly away from zero: selected
        rng.normal(0.0, 1.0, n),    # straddles zero: not selected
        rng.normal(-4.0, 0.5, n),   # negative, away from zero: selected
    ])
    summary = summarize_draws(draws, ["a", "b", "c"])
    assert summary.mean[0] == pytest.approx(5.0, abs=0.05)
    assert summary.sd[1] == pytest.approx(1.0, abs=0.05)
    assert summary.q025[0] == pytest.approx(5.0 - 1.96, abs=0.05)
    assert summary.q975[2] == pytest.approx(-4.0 + 1.96 * 0.5, abs=0.05)
    assert list(select_via_ci(summary)) == [True, False, True]


def test_select_boundary_counts_as_containing_zero():
    from blqq.metrics import PosteriorSummary
    summary = PosteriorSummary(
        names=["a", "b"],
        mean=np.array([1.0, 1.0]),
        sd=np.array([1.0, 1.0]),
        q025=np.array([0.0, 0.1]),
        q975=np.array([2.0, 2.0]),
    )
    assert list(select_via_ci(summary)) == [False, True]


def test_fsl_hand_value():
    selected = [True, True, False, False]
    support = [True, False, True, False]
    assert fsl(selected, support) == (1, 1, 2)
    assert fsl([False, False], [False, False]) == (0, 0, 0)


def test_acf_white_noise():
    rng = np.random.default_rng(4)
    chain = rng.standard_normal(100_000)
    r = acf(chain, 10)
    assert r[0] == 1.0
    assert np.all(np.abs(r[1:]) < 0.02)


def test_acf_ar1_process():
    # AR(1) with coefficient phi has acf(k) = phi^k
    rng = np.random.default_rng(5)
    phi = 0.7
    n = 200_000
    chain = np.empty(n)
    chain[0] = 0.0
    eps = rng.standard_normal(n)
    for t in range(1, n):
        chain[t] = phi * chain[t - 1] + eps[t]
    r = acf(chain, 5)
    for k in range(1, 6):
        assert r[k] == pytest.approx(phi**k, abs=0.02)


def test_acf_needs_enough_draws():
    with pytest.raises(ValueError):
        acf(np.arange(10.0), 6)


def test_ess_iid_close_to_n():
    rng = np.random.default_rng(6)
    n = 20_000
    ess = effective_sample_size(rng.standard_normal(n))
    assert 0.9 * n <= ess <= n


def test_ess_ar1_matches_theory():
    # theory: ESS/n = (1 - phi) / (1 + phi)
    rng = np.random.default_rng(7)
    phi = 0.9
    n = 400_000
    chain = np.empty(n)
    chain[0] = 0.0
    eps = rng.standard_normal(n)
    for t in range(1, n):
        chain[t] = phi * chain[t - 1] + eps[t]
    ess = effective_sample_size(chain)
    expected = n * (1 - phi) / (1 + phi)
    assert ess == pytest.approx(expected, rel=0.15)


def test_ess_constant_chain_degenerate():
    with pytest.warns(RuntimeWarning):
        assert effective_sample_size(np.ones(200)) == 1.0


def test_ess_needs_enough_draws():
    with pytest.raises(ValueError):
        effective_sample_size(np.arange(50.0))


def _ess_all_lags(chain):
    """ESS as effective_sample_size took it before it stopped at Geyer's
    truncation: every autocorrelation up to max_lag = min(n/2 - 1, 1000),
    then the sum of the positive leading pairs. Returns (ESS, the lag m at
    which the sum stopped)."""
    n = chain.shape[0]
    max_lag = min(n // 2 - 1, 1000)
    scaled, _ = _pow2_scaled(chain)
    centered = scaled - scaled.mean()
    c0 = float(centered @ centered) / n
    rho = [1.0] + [float(centered[:-k] @ centered[k:]) / n / c0 for k in range(1, max_lag + 1)]
    tau, m = 1.0, 1
    while m + 1 <= max_lag:
        pair = rho[m] + rho[m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 2
    return float(min(max(n / tau, 1.0), n)), m, max_lag, np.array(rho)


def test_ess_stops_where_geyer_stops():
    # ESS and acf read the autocorrelations lazily, up to the lag the ESS
    # truncation reaches; the values equal the all-lags formula exactly, on
    # chains whose truncation stops early and on one (a random walk) whose
    # positive pairs run to max_lag
    rng = np.random.default_rng(16)
    chains = [rng.standard_normal(100), rng.standard_normal(601)]
    for phi, n in ((0.5, 600), (0.9, 9000), (0.99, 2500)):
        eps = rng.standard_normal(n)
        chain = np.empty(n)
        chain[0] = eps[0]
        for t in range(1, n):
            chain[t] = phi * chain[t - 1] + eps[t]
        chains.append(chain)
    chains += [np.cumsum(np.random.default_rng(3).standard_normal(3000)), 1e300 * chains[2]]
    reached = 0
    for chain in chains:
        ess, m, max_lag, rho = _ess_all_lags(chain)
        reached += m + 1 > max_lag
        assert effective_sample_size(chain) == ess
        assert acf(chain, max_lag).tobytes() == rho.tobytes()
    assert reached == 1


@pytest.mark.parametrize("k", [-600, 600, 1000])
def test_scaling_by_a_power_of_two_is_exact(k):
    # acf, ESS and the summary work on the chain scaled by a power of two, so
    # a chain whose squares overflow (values near 1e301) or underflow (near
    # 1e-181) gives the same acf and ESS, and the summary scaled by the same
    # power, bit for bit
    rng = np.random.default_rng(8)
    chain = 3.0 + 0.1 * rng.standard_normal(500).cumsum()
    scaled = np.ldexp(chain, k)
    assert np.array_equal(acf(scaled, 20), acf(chain, 20))
    assert effective_sample_size(scaled) == effective_sample_size(chain)
    draws = np.column_stack([chain, -2.0 * chain])
    want = summarize_draws(draws, ["a", "b"])
    got = summarize_draws(np.ldexp(draws, k), ["a", "b"])
    for field in ("mean", "sd", "q025", "q975"):
        assert np.array_equal(getattr(got, field), np.ldexp(getattr(want, field), k)), field


def test_mean_near_float_max_is_finite():
    # the mean is taken on the same power-of-two-scaled draws as the sd: a
    # column near 1e307 sums past the float range unscaled, and a column of
    # ordinary values keeps numpy's mean bit for bit
    rng = np.random.default_rng(9)
    ordinary = 3.0 + rng.standard_normal(400)
    draws = np.column_stack([np.linspace(1.0e307, 1.7e307, 400), ordinary, 0.1 * ordinary])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = summarize_draws(draws, ["big", "a", "b"])
    assert summary.mean[0] == pytest.approx(1.35e307, rel=1e-12)
    assert np.array_equal(summary.mean[1:], draws[:, 1:].mean(axis=0))
