import math
import warnings

import numpy as np
import pytest

from hetprior.dist import (
    Distribution,
    HalfNormal,
    HalfStudentT,
    Exponential,
    HalfCauchy,
    LogNormal,
    Lomax,
    ScaledInvChi,
    InvGamma,
    Normal,
    Uniform,
    parse_distribution,
    format_distribution,
)

ZOO = [
    HalfNormal(0.22),
    HalfStudentT(8.2, 0.20),
    HalfStudentT(1.5, 0.3),
    Exponential(0.2),
    HalfCauchy(0.10),
    LogNormal(-2.6, 1.7),
    Lomax(9.9, 1.5),
    Lomax(3.0, 0.4),
    ScaledInvChi(8.2, 2.0),
    InvGamma(3.0, 0.4),
    Normal(0.0, 100.0),
    Normal(-0.5, 0.25),
    Uniform(0.0, 10.0),
]


def ids(zoo):
    return [format_distribution(d) for d in zoo]


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
def test_density_integrates_to_one(d):
    # adaptive quadrature over a generous quantile range (split at the median
    # to help heavy tails), plus the leftover tail mass via the cdf
    from scipy.integrate import quad

    knots = [d.quantile(u) for u in (1e-9, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-5, 1 - 1e-9)]
    mass = d.cdf(knots[0]) + (1.0 - d.cdf(knots[-1]))
    for a, b in zip(knots, knots[1:]):
        mass += quad(d.density, a, b, epsabs=1e-12, limit=500)[0]
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
@pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.5, 0.95, 0.99, 0.999])
def test_quantile_cdf_inverse_pair(d, p):
    x = d.quantile(p)
    assert d.cdf(x) == pytest.approx(p, abs=1e-10)
    # quantile∘cdf identity at interior points
    assert d.quantile(d.cdf(x)) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
def test_cdf_monotone_and_bounded(d):
    x = np.linspace(-1.0, d.quantile(0.999) * 1.5, 500)
    c = d.cdf(x)
    assert np.all(np.diff(c) >= -1e-15)
    assert np.all((c >= 0.0) & (c <= 1.0))


#: every distribution on x >= 0, with a Lomax whose density formula would
#: take log1p of a value below -1 at x = -2
HALF_LINE = [d for d in ZOO if not isinstance(d, Normal)] + [Lomax(2.0, 1.0)]


@pytest.mark.parametrize("d", HALF_LINE, ids=ids(HALF_LINE))
def test_support_is_nonnegative(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.log_density(-1.0) == -math.inf
        assert d.log_density(-2.0) == -math.inf
        assert np.all(d.log_density(np.array([-2.0, -1e-300, -math.inf, math.nan])) == -math.inf)
    assert d.cdf(-1.0) == 0.0


def test_half_normal_closed_forms():
    d = HalfNormal(0.22)
    assert d.log_density(0.0) == pytest.approx(math.log(math.sqrt(2.0 / math.pi) / 0.22), abs=1e-12)
    m = d.moments()
    assert m.mean == pytest.approx(0.22 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert m.sd == pytest.approx(0.22 * math.sqrt(1.0 - 2.0 / math.pi), rel=1e-12)
    assert d.cdf(0.43) == pytest.approx(0.95, abs=5e-3)
    assert d.quantile(0.95) == pytest.approx(0.43, abs=5e-3)


def test_half_cauchy_mode_and_median():
    d = HalfCauchy(0.10)
    assert d.log_density(0.0) == pytest.approx(math.log(2.0 / (math.pi * 0.10)), abs=1e-12)
    assert d.cdf(0.10) == pytest.approx(0.5, abs=1e-12)
    m = d.moments()
    assert m.mean is None and m.sd is None
    assert d.quantile(0.5) == pytest.approx(0.10)
    assert d.quantile(0.99) == pytest.approx(6.37, abs=5e-3)


def test_printed_quantile_values():
    assert LogNormal(-2.6, 1.7).quantile(0.95) == pytest.approx(1.22, abs=5e-3)
    assert Lomax(9.9, 1.5).quantile(0.99) == pytest.approx(0.89, abs=5e-3)
    assert HalfStudentT(8.2, 0.20).quantile(0.99) == pytest.approx(0.67, abs=5e-3)


def test_printed_moment_values():
    m = HalfNormal(0.22).moments()
    assert (round(m.mean, 2), round(m.sd, 2)) == (0.18, 0.13)
    m = Lomax(9.9, 1.5).moments()
    assert (round(m.mean, 2), round(m.sd, 2)) == (0.17, 0.19)
    d = LogNormal(-2.6, 1.7)
    assert (round(d.quantile(0.5), 2), round(d.moments().mean, 2)) == (0.07, 0.32)


def test_undefined_moments_are_none():
    assert HalfStudentT(0.9, 1.0).moments().mean is None
    assert HalfStudentT(1.5, 1.0).moments().mean is not None
    assert HalfStudentT(1.5, 1.0).moments().sd is None
    assert Lomax(1.5, 1.0).moments().sd is None
    assert Lomax(0.9, 1.0).moments().mean is None


def test_half_t_converges_to_half_normal():
    s = 0.22
    t = HalfStudentT(1e6, s)
    n = HalfNormal(s)
    for p in np.arange(0.1, 1.0, 0.1):
        assert t.quantile(p) == pytest.approx(n.quantile(p), abs=1e-4 * s)


def test_lomax_converges_to_exponential():
    alpha, lam = 1e6, 2.0e6
    lo = Lomax(alpha, lam)
    ex = Exponential(lam / alpha)
    for p in np.arange(0.1, 1.0, 0.1):
        assert lo.quantile(p) == pytest.approx(ex.quantile(p), abs=1e-4 * ex.moments().mean)


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
def test_sampling_deterministic_given_seed(d):
    a = d.sample(np.random.default_rng(7), 100)
    b = d.sample(np.random.default_rng(7), 100)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
def test_sample_moments_match_closed_forms(d):
    m = d.moments()
    if m.mean is None or m.sd is None:
        pytest.skip("moments undefined")
    n = 1_000_000
    x = d.sample(np.random.default_rng(20260815), n)
    se = m.sd / math.sqrt(n)
    assert abs(x.mean() - m.mean) < 4.0 * se
    # median check too, distribution-free tolerance on cdf scale
    assert abs(d.cdf(float(np.median(x))) - 0.5) < 4.0 * 0.5 / math.sqrt(n)


def test_half_normal_monte_carlo_mean():
    x = HalfNormal(0.22).sample(np.random.default_rng(3), 1_000_000)
    assert abs(x.mean() - 0.1755) < 3.0 * 0.13 / 1e3


def test_half_t_monte_carlo_tail_quantile():
    x = HalfStudentT(8.2, 0.20).sample(np.random.default_rng(4), 1_000_000)
    assert float(np.quantile(x, 0.99)) == pytest.approx(0.67, abs=0.01)


@pytest.mark.parametrize("text,expected", [
    ("half-normal(0.22)", HalfNormal(0.22)),
    ("half-t(8.2,0.20)", HalfStudentT(8.2, 0.20)),
    ("lomax(9.9,1.5)", Lomax(9.9, 1.5)),
    ("log-normal(-2.6,1.7)", LogNormal(-2.6, 1.7)),
    ("half-cauchy(0.10)", HalfCauchy(0.10)),
    ("exp(0.2)", Exponential(0.2)),
    ("uniform(0,10)", Uniform(0.0, 10.0)),
    ("normal(0,100)", Normal(0.0, 100.0)),
])
def test_parse_canonical_forms(text, expected):
    assert parse_distribution(text) == expected


@pytest.mark.parametrize("d", ZOO, ids=ids(ZOO))
def test_parse_print_round_trip(d):
    assert parse_distribution(format_distribution(d)) == d


@pytest.mark.parametrize("bad", [
    "half-normal",          # no parens
    "triangular(1,2)",      # unknown family
    "half-normal(0.1,0.2)", # wrong arity
    "half-t(8.2)",          # wrong arity
    "half-normal(abc)",     # non-numeric
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


@pytest.mark.parametrize("ctor,args", [
    (HalfNormal, (-0.1,)),
    (HalfNormal, (0.0,)),
    (HalfStudentT, (0.0, 1.0)),
    (HalfStudentT, (2.0, -1.0)),
    (Exponential, (0.0,)),
    (LogNormal, (0.0, 0.0)),
    (Lomax, (-1.0, 1.0)),
    (Uniform, (3.0, 3.0)),
    (Uniform, (5.0, 1.0)),
    (Normal, (0.0, 0.0)),
])
def test_invalid_parameters_rejected(ctor, args):
    with pytest.raises(ValueError):
        ctor(*args)


def test_quantile_rejects_boundary_probabilities():
    d = HalfNormal(1.0)
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            d.quantile(p)


def test_vectorized_evaluation_matches_scalar():
    d = LogNormal(-2.6, 1.7)
    xs = np.array([0.01, 0.1, 0.5, 2.0])
    np.testing.assert_allclose(d.log_density(xs), [d.log_density(float(x)) for x in xs])
    np.testing.assert_allclose(d.cdf(xs), [d.cdf(float(x)) for x in xs])


def test_sample_size_validation():
    with pytest.raises(ValueError):
        HalfNormal(1.0).sample(np.random.default_rng(0), 0)


def test_scaled_inv_chi_relates_to_chisq():
    # (scale/X)^2 should be chi-squared distributed
    d = ScaledInvChi(8.2, 2.0)
    x = d.sample(np.random.default_rng(11), 200_000)
    z = (2.0 / x) ** 2
    from scipy import stats
    assert stats.kstest(z, "chi2", args=(8.2,)).pvalue > 1e-4
