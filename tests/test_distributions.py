import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import oracles
from blqq.distributions import (
    _trunc_std_lower,
    inverse_mills,
    sample_scaled_inv_chi2,
    std_normal_log_cdf,
)

N_MOMENT = 200_000


def test_log_cdf_far_tail_no_underflow():
    val = std_normal_log_cdf(-40.0)
    assert np.isfinite(val)
    assert val == pytest.approx(float(mpmath.log(mpmath.ncdf(-40))), rel=1e-10)


def test_cdf_rejects_non_finite():
    with pytest.raises(ValueError):
        std_normal_log_cdf(np.inf)


def test_truncated_normal_half_normal_mean():
    rng = np.random.default_rng(7)
    draws = oracles.halfline_draws(0.0, 1.0, True, rng, N_MOMENT)
    assert np.all(draws >= 0)
    expected = math.sqrt(2 / math.pi)
    se = np.sqrt((1 - expected**2) / N_MOMENT)
    assert draws.mean() == pytest.approx(expected, abs=4 * se)


def test_truncated_normal_negligible_truncation():
    rng = np.random.default_rng(8)
    draws = oracles.halfline_draws(10.0, 1.0, True, rng, N_MOMENT)
    assert draws.mean() == pytest.approx(10.0, abs=0.01)


def test_truncated_normal_negative_side_mirror():
    rng = np.random.default_rng(9)
    draws = oracles.halfline_draws(0.0, 1.0, False, rng, N_MOMENT)
    assert np.all(draws < 0)
    expected = -math.sqrt(2 / math.pi)
    assert draws.mean() == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize("mean", [-8.0, -6.0, -3.0, -1.0, 0.0, 1.5, 4.0, 8.0])
def test_truncated_normal_moments_match_scipy(mean):
    # scipy.stats.truncnorm is the independent oracle for both moments
    rng = np.random.default_rng(100 + int(mean * 10))
    n = N_MOMENT
    draws = oracles.halfline_draws(mean, 1.0, True, rng, n)
    ref = stats.truncnorm(-mean, np.inf, loc=mean, scale=1.0)
    m, v, _, kurt = (float(x) for x in ref.stats(moments="mvsk"))
    assert draws.mean() == pytest.approx(m, abs=3.5 * math.sqrt(v / n))
    # the sample variance's SE needs the excess kurtosis: deep in the tail the
    # law is near-exponential (excess kurtosis ~5), not normal
    var_se = v * math.sqrt((kurt + 2.0) / n)
    assert draws.var(ddof=1) == pytest.approx(v, abs=4 * var_se)


def test_truncated_normal_far_tail_exact():
    # truncation point 10 sd into the tail exercises the rejection branch
    rng = np.random.default_rng(11)
    draws = oracles.halfline_draws(-10.0, 1.0, True, rng, 50_000)
    assert np.all(draws >= 0)
    ref = stats.truncnorm(10.0, np.inf)
    m, v = ref.stats(moments="mv")
    expected = -10.0 + float(m)  # shift back to the requested mean
    assert draws.mean() == pytest.approx(expected, abs=5 * math.sqrt(float(v) / 50_000))


class _BoundedGenerator:
    """A Generator that fails the test after a fixed number of variates, so
    that a rejection loop which never accepts cannot stall the suite."""

    def __init__(self, gen, limit=10_000):
        self.gen, self.left = gen, limit

    def __getattr__(self, name):
        self.left -= 1
        if self.left < 0:
            pytest.fail("the tail branch kept drawing without accepting")
        return getattr(self.gen, name)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_trunc_std_lower_rejects_non_finite_truncation(alpha):
    gen = _BoundedGenerator(np.random.default_rng(3))
    with pytest.raises(FloatingPointError, match="not finite"):
        _trunc_std_lower(alpha, 0.5, gen)


def test_scaled_inv_chi2_mean():
    rng = np.random.default_rng(12)
    draws = sample_scaled_inv_chi2(10.0, 2.0, rng, size=N_MOMENT)
    assert np.all(draws > 0)
    # analytic mean nu*delta^2/(nu-2)
    assert draws.mean() == pytest.approx(2.5, abs=0.02)


def test_scaled_inv_chi2_matches_transformation():
    seed = 13
    draw = sample_scaled_inv_chi2(10.0, 2.0, np.random.default_rng(seed))
    q = np.random.default_rng(seed).chisquare(10.0)
    assert draw == pytest.approx(10.0 * 2.0 / q, rel=1e-15)


def test_scaled_inv_chi2_ks_against_exact_cdf():
    rng = np.random.default_rng(14)
    draws = sample_scaled_inv_chi2(5.0, 1.5, rng, size=N_MOMENT)
    cdf = lambda x: 1.0 - stats.chi2.cdf(5.0 * 1.5 / x, 5.0)
    stat = stats.kstest(draws, cdf).statistic
    assert stat <= 0.005


def test_inverse_mills_values():
    # ratio oracle straight from the definition at moderate arguments
    for a in (-3.0, -1.0, 0.0, 0.5, 2.0):
        expected = stats.norm.pdf(a) / stats.norm.cdf(a)
        assert inverse_mills(a) == pytest.approx(expected, rel=1e-12)
    # deep left tail: phi(a)/Phi(a) ~ -a, no overflow
    assert inverse_mills(-40.0) == pytest.approx(40.0, rel=1e-2)
    assert inverse_mills(40.0) == pytest.approx(stats.norm.pdf(40.0), abs=1e-300)
    arr = inverse_mills(np.array([-1.0, 1.0]))
    assert arr.shape == (2,)


def test_truncated_normal_draws_bit_identical_across_streams():
    a = oracles.halfline_draws(0.3, 2.0, True, np.random.default_rng([5, 1]), 1)
    b = oracles.halfline_draws(0.3, 2.0, True, np.random.default_rng([5, 1]), 1)
    assert np.array_equal(a, b)
