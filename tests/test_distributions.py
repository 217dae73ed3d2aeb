import math
import statistics

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import oracles
from blqq.distributions import (
    _SQRT2,
    _TAIL_SWITCH,
    _TINY,
    _draw_halfline,
    _draw_halflines,
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
        _trunc_std_lower(alpha, gen)
    # a nan mean reaches the tail helper through the half-line draw
    with pytest.raises(FloatingPointError, match="not finite"):
        _draw_halfline(math.nan, 1.0 if alpha > 0 else -1.0, 0.5, gen)


@pytest.mark.parametrize("alpha", [1e150, 1e154, 1e300, 1.7e308])
def test_trunc_std_lower_accepts_at_huge_truncation(alpha):
    # where alpha^2 overflows the rejection rate must not become inf, at
    # which no proposal is accepted; the draw lies at alpha, to rounding
    gen = _BoundedGenerator(np.random.default_rng(3))
    x = _trunc_std_lower(alpha, gen)
    assert alpha <= x < alpha * (1 + 1e-15)
    # the half-line draw reaches it with a huge mean on the far side
    assert _draw_halfline(alpha, -1.0, 0.5, gen) < 0.0
    assert _draw_halfline(-alpha, 1.0, 0.5, gen) >= 0.0


# uniforms from the smallest gen.random() can return to the largest
_UNIS = [2.0 ** -53, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12, 1 - 2.0 ** -53]


@pytest.mark.parametrize("sd", [0.01, 1.0, 3.0])
def test_halfline_draw_matches_scipy_inverse_cdf(sd):
    # the inverse-CDF branch against the same formula on scipy's ndtr/ndtri,
    # for alpha over [-40, 5); the error is measured against |m| + sd|x|,
    # because the sum m + sd x cancels where x nears alpha (uni near 1)
    gen = np.random.default_rng(4)
    worst = 0.0
    for alpha in np.linspace(-40.0, _TAIL_SWITCH, 226)[:-1].tolist():
        x_ref = -special.ndtri(np.array(_UNIS) * special.ndtr(-alpha))
        for sign in (1.0, -1.0):
            m = -sign * alpha * sd
            for uni, x in zip(_UNIS, x_ref.tolist()):
                draw = _draw_halfline(m, sign * sd, uni, gen)
                worst = max(worst, abs(draw - (m + sign * sd * x)) / (abs(m) + sd * abs(x)))
    assert worst <= 1e-12


def test_halfline_draw_stays_on_its_side():
    # uniforms within ulps of 1 put x within ulps of alpha, where m + sd x can
    # round past 0; every draw must still land on its half-line
    rng = np.random.default_rng(5)
    gen = np.random.default_rng(6)
    unis = [1 - 2.0 ** -53, 1 - 2.0 ** -52, 1 - 1e-12, 0.999999]
    outside = 0
    for m in rng.uniform(-30.0, 30.0, 2000).tolist():
        for v in (1e-4, 0.3, 1.0, 7.0):
            sd = math.sqrt(v)
            for uni in unis:
                outside += _draw_halfline(m, sd, uni, gen) < 0.0
                outside += _draw_halfline(m, -sd, uni, gen) >= 0.0
    assert outside == 0


def _draw_side_flag(m, v, nonnegative, uni, gen):
    """The half-line draw as it took (m, v, side) before it took the signed
    standard deviation: the reference the signed form must equal bit for bit."""
    sd = math.sqrt(v)
    alpha = -m / sd if nonnegative else m / sd
    if alpha < _TAIL_SWITCH:
        while uni <= 0.0:
            uni = gen.random()
        x = -statistics.NormalDist().inv_cdf(uni * 0.5 * math.erfc(alpha / _SQRT2))
    else:
        x = _trunc_std_lower(alpha, gen)
    if nonnegative:
        val = m + sd * x
        return val if val >= 0.0 else 0.0
    val = m - sd * x
    return val if val < 0.0 else -_TINY


def test_signed_sd_draw_equals_side_flag_form():
    # both half-lines, alpha over [-40, 5), at the switch and just below it,
    # the Robert tail beyond it, and uni = 0, which is replaced from gen: the
    # same bits and the same variates taken from gen
    alphas = np.linspace(-40.0, _TAIL_SWITCH, 161)[:-1].tolist()
    alphas += [math.nextafter(_TAIL_SWITCH, 0.0), _TAIL_SWITCH, 5.5, 8.0, 30.0]
    seed = 0
    for v in (1e-6, 0.09, 1.0, 2.7, 1e4):
        sd = math.sqrt(v)
        for alpha in alphas:
            for nonnegative in (True, False):
                m = -alpha * sd if nonnegative else alpha * sd
                for uni in [0.0] + _UNIS:
                    seed += 1
                    ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
                    want = _draw_side_flag(m, v, nonnegative, uni, ga)
                    got = _draw_halfline(m, sd if nonnegative else -sd, uni, gb)
                    assert got.hex() == want.hex(), (m, v, nonnegative, uni)
                    assert ga.random() == gb.random()


def test_halflines_bulk_matches_the_scalar_draw():
    # the array draw runs the scalar's formula on scipy's erfc and ndtri, which
    # differ from math.erfc and the stdlib inverse CDF in the last bits; the
    # error is measured against |m| + |t|, as the sum m - t x can cancel
    rng = np.random.default_rng(16)
    n = 200_000
    m = rng.normal(0.0, 5.0, n)
    t = np.sqrt(rng.uniform(1e-4, 9.0, n)) * rng.choice([-1.0, 1.0], n)
    uni = rng.random(n)
    bulk = -m / t < _TAIL_SWITCH
    assert bulk.sum() > 100_000
    got = _draw_halflines(m, t, uni, np.random.default_rng(17))
    gen = np.random.default_rng(17)
    want = np.array([_draw_halfline(*row, gen)
                     for row in zip(m.tolist(), t.tolist(), uni.tolist())])
    assert np.all(np.abs(got - want)[bulk] <= 1e-13 * (np.abs(m) + np.abs(t))[bulk])
    # the tail rows are the scalar draws themselves, taken in the same order
    assert np.array_equal(got[~bulk], want[~bulk])
    assert np.all((got >= 0.0) == (t > 0.0))


@pytest.mark.parametrize("row", ["tail", "zero-uniform", "nan-mean"])
def test_halflines_exceptional_row_is_the_scalar_draw(row):
    # a row with alpha = 7, one whose uniform is exactly 0 and one whose mean
    # is nan go through the scalar draw: the same value, the same variates
    # taken from gen, and the same error
    m = np.array([0.3, -1.2, 0.0, 2.5])
    t = np.array([1.0, -0.5, 2.0, -1.5])
    uni = np.array([0.2, 0.7, 0.4, 0.9])
    k = 2
    if row == "tail":
        m[k] = -7.0 * t[k]
    elif row == "zero-uniform":
        uni[k] = 0.0
    else:
        m[k] = math.nan
    ga, gb = np.random.default_rng(18), np.random.default_rng(18)
    if row == "nan-mean":
        with pytest.raises(FloatingPointError, match="not finite"):
            _draw_halflines(m, t, uni, ga)
        with pytest.raises(FloatingPointError, match="not finite"):
            _draw_halfline(float(m[k]), float(t[k]), float(uni[k]), gb)
    else:
        got = _draw_halflines(m, t, uni, ga)
        want = _draw_halfline(float(m[k]), float(t[k]), float(uni[k]), gb)
        assert got[k].hex() == want.hex()
    assert ga.random() == gb.random()


def test_halflines_ks_against_truncnorm():
    # criterion 7's check of the scalar draw, on the array draw: a truncation
    # point inside the bulk, 1e6 draws, KS against scipy.stats.truncnorm
    n = 1_000_000
    mean, sd = 0.5, math.sqrt(2.0)
    gen = np.random.default_rng(19)
    draws = _draw_halflines(np.full(n, mean), np.full(n, sd), gen.random(n), gen)
    ref = stats.truncnorm(-mean / sd, np.inf, loc=mean, scale=sd)
    assert stats.kstest(draws, ref.cdf).statistic <= 0.002


def test_inverse_cdf_without_range_check_equals_normal_dist():
    # the draw calls the C function behind NormalDist.inv_cdf directly, past
    # a range check that p in (0, 1) always passes
    ps = [2.0 ** -k for k in range(1, 1075)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
    ps += np.random.default_rng(15).random(2000).tolist()
    ps += [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
    inv_cdf = statistics.NormalDist().inv_cdf
    for p in ps:
        assert statistics._normal_dist_inv_cdf(p, 0.0, 1.0).hex() == inv_cdf(p).hex(), p


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
    # the operation order is pinned, and out= gives the allocating call's
    # bytes, into a separate buffer or in place
    a = np.concatenate([[-40.0, 0.0, 40.0], np.random.default_rng(3).standard_normal(1000) * 5])
    want = inverse_mills(a)
    assert want.tobytes() == (math.sqrt(2.0 / math.pi) / special.erfcx(-a / math.sqrt(2.0))).tobytes()
    buf = np.empty_like(a)
    assert inverse_mills(a, out=buf) is buf and np.array_equal(buf, want)
    inplace = a.copy()
    inverse_mills(inplace, out=inplace)
    assert inplace.tobytes() == want.tobytes()


def test_truncated_normal_draws_bit_identical_across_streams():
    a = oracles.halfline_draws(0.3, 2.0, True, np.random.default_rng([5, 1]), 1)
    b = oracles.halfline_draws(0.3, 2.0, True, np.random.default_rng([5, 1]), 1)
    assert np.array_equal(a, b)
