"""Tests for condensing posterior draws into parametric priors."""

import math

import numpy as np
import pytest

from hetprior.dist import (
    Exponential,
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    InfeasibleError,
    LogNormal,
    Lomax,
    NU_MAX,
    exp_mixture_lomax,
    half_t_moment_fit,
    scale_mixture_half_t,
)
from hetprior.data import MetaAnalysisCollection, StudyRecord
from hetprior.sampler import McmcConfig, ModelSpec, PosteriorSamples, run_hierarchical, summarize_samples
from hetprior.summarize import (
    FIT_FAMILIES,
    FitError,
    PriorSpec,
    approximation_table,
    fit_predictive_ml,
    fit_predictive_moments,
    format_approximation_table,
    mixture_match_prior,
    point_estimate_prior,
    prior_to_dict,
)


def positive_draws_with_moments(mean, sd, n=4096, seed=0):
    """A positive sample whose sample mean/sd (ddof=1) are exact."""
    sigma = math.sqrt(math.log1p((sd / mean) ** 2))
    for attempt in range(20):
        rng = np.random.default_rng(seed + 1000 * attempt)
        x = rng.lognormal(math.log(mean) - sigma**2 / 2.0, sigma, n)
        x = mean + (x - x.mean()) * (sd / x.std(ddof=1))
        if x.min() > 0.0:
            return x
    raise AssertionError("could not standardize to a positive sample")


def fake_run(family, hyper, n_analyses=3):
    """Hand-built PosteriorSamples carrying only what the prior routes read."""
    kept = np.asarray(next(iter(hyper.values()))).size
    columns = [np.asarray(v, dtype=float).reshape(kept, 1) for v in hyper.values()]
    columns += [np.zeros((kept, n_analyses)), np.full((kept, n_analyses), 0.1)]
    columns += [np.full((kept, 1), 0.1), np.zeros((kept, 1))]
    return PosteriorSamples(
        family=family,
        table=np.concatenate(columns, axis=1)[None],
        analysis_ids=tuple(f"a{i}" for i in range(n_analyses)),
    )


# -- route 1: point estimates ---------------------------------------------------


@pytest.mark.parametrize("statistic", ["mean", "median", "q95"])
def test_point_estimate_constant_draws(statistic):
    s = fake_run("half-normal", {"scale": np.full(200, 0.31)})
    spec = point_estimate_prior(s, statistic)
    assert spec.distribution == HalfNormal(0.31)
    assert spec.method == f"point_estimate({statistic})"


def test_point_estimate_mean_half_normal():
    draws = positive_draws_with_moments(0.22, 0.064, seed=3)
    spec = point_estimate_prior(fake_run("half-normal", {"scale": draws}))
    assert isinstance(spec.distribution, HalfNormal)
    assert spec.distribution.scale == pytest.approx(0.22, abs=1e-12)
    assert spec.note is None


def test_point_estimate_q95_is_flagged_conservative():
    draws = positive_draws_with_moments(0.22, 0.064, seed=4)
    spec = point_estimate_prior(fake_run("half-normal", {"scale": draws}), "q95")
    assert spec.note == "conservative"
    assert spec.distribution.scale == pytest.approx(np.quantile(draws, 0.95))


def test_point_estimate_q95_exceeds_mean_for_right_skewed_draws():
    draws = np.random.default_rng(8).exponential(0.2, 5000)
    run = fake_run("half-normal", {"scale": draws})
    lo = point_estimate_prior(run, "mean").distribution.scale
    hi = point_estimate_prior(run, "q95").distribution.scale
    assert hi > lo


@pytest.mark.parametrize(
    "family,expected_type", [("exp", Exponential), ("half-cauchy", HalfCauchy)]
)
def test_point_estimate_other_scale_families(family, expected_type):
    spec = point_estimate_prior(fake_run(family, {"scale": np.full(100, 0.15)}))
    assert isinstance(spec.distribution, expected_type)
    assert spec.distribution.scale == pytest.approx(0.15)


def test_point_estimate_log_normal_family():
    theta = np.full(500, 0.08)
    sigma = np.full(500, 1.4)
    spec = point_estimate_prior(fake_run("log-normal", {"theta": theta, "sigma": sigma}))
    assert isinstance(spec.distribution, LogNormal)
    assert spec.distribution.mu == pytest.approx(math.log(0.08))
    assert spec.distribution.sigma == pytest.approx(1.4)


def test_point_estimate_unknown_statistic():
    s = fake_run("half-normal", {"scale": np.full(100, 0.2)})
    with pytest.raises(ValueError, match="statistic"):
        point_estimate_prior(s, "mode")


# -- route 2: mixture matching --------------------------------------------------


def test_mixture_match_half_normal_gives_half_t():
    draws = positive_draws_with_moments(0.22, 0.064, seed=11)
    spec = mixture_match_prior(fake_run("half-normal", {"scale": draws}))
    assert spec.method == "mixture_match"
    expected = scale_mixture_half_t(0.22, 0.064)
    assert spec.distribution.df == pytest.approx(expected.df)
    assert spec.distribution.scale == pytest.approx(expected.scale)
    # the communicated values
    assert spec.distribution.df == pytest.approx(8.2, abs=0.2)
    assert spec.distribution.scale == pytest.approx(0.20, abs=0.01)


def test_mixture_match_exponential_gives_lomax():
    draws = positive_draws_with_moments(0.2, 0.2, seed=12)
    spec = mixture_match_prior(fake_run("exp", {"scale": draws}))
    expected = exp_mixture_lomax(0.2, 0.2)
    assert isinstance(spec.distribution, Lomax)
    assert spec.distribution.shape == pytest.approx(expected.shape)
    assert spec.distribution.scale == pytest.approx(expected.scale)
    assert spec.distribution.shape == pytest.approx(3.0)
    assert spec.distribution.scale == pytest.approx(0.4)


def test_mixture_match_log_normal_inflates_shape():
    rng = np.random.default_rng(13)
    theta = rng.lognormal(-2.6, 0.3, 4000)
    sigma = rng.uniform(1.2, 1.8, 4000)
    spec = mixture_match_prior(fake_run("log-normal", {"theta": theta, "sigma": sigma}))
    log_theta = np.log(theta)
    assert spec.distribution.mu == pytest.approx(log_theta.mean())
    expected_shape = math.sqrt(np.mean(sigma**2) + np.var(log_theta, ddof=1))
    assert spec.distribution.sigma == pytest.approx(expected_shape)
    # inflation: strictly wider than the average conditional shape
    assert spec.distribution.sigma > np.sqrt(np.mean(sigma**2)) - 1e-12


def test_mixture_match_log_normal_degenerate_draws_reduce_to_conditional():
    theta = np.full(300, 0.07)
    sigma = np.full(300, 1.6)
    spec = mixture_match_prior(fake_run("log-normal", {"theta": theta, "sigma": sigma}))
    assert spec.distribution.mu == pytest.approx(math.log(0.07))
    assert spec.distribution.sigma == pytest.approx(1.6)


def test_mixture_match_half_cauchy_unsupported():
    s = fake_run("half-cauchy", {"scale": np.full(100, 0.1)})
    with pytest.raises(ValueError, match="half-cauchy"):
        mixture_match_prior(s)


def test_mixture_match_zero_spread_half_normal_caps_df():
    s = fake_run("half-normal", {"scale": np.full(100, 0.25)})
    spec = mixture_match_prior(s)
    assert spec.distribution.df == NU_MAX
    assert spec.distribution.scale == pytest.approx(0.25, rel=1e-3)
    assert "degenerate" in spec.note


def test_mixture_match_zero_spread_exponential_stays_exponential():
    s = fake_run("exp", {"scale": np.full(100, 0.2)})
    spec = mixture_match_prior(s)
    assert isinstance(spec.distribution, Exponential)
    assert spec.distribution.scale == pytest.approx(0.2)
    assert "degenerate" in spec.note


# -- route 3a: maximum likelihood ----------------------------------------------


def test_ml_self_fit_half_normal():
    draws = HalfNormal(0.3).sample(np.random.default_rng(21), 100_000)
    spec = fit_predictive_ml(draws, "half-normal")
    assert spec.method == "direct_fit_ml"
    assert spec.distribution.scale == pytest.approx(0.3, abs=0.01)


def test_ml_self_fit_exponential():
    draws = Exponential(0.25).sample(np.random.default_rng(22), 100_000)
    spec = fit_predictive_ml(draws, "exp")
    assert spec.distribution.scale == pytest.approx(0.25, abs=0.01)


def test_ml_self_fit_half_t():
    draws = HalfStudentT(8.2, 0.2).sample(np.random.default_rng(23), 100_000)
    spec = fit_predictive_ml(draws, "half-t")
    assert spec.distribution.df == pytest.approx(8.2, abs=1.0)
    assert spec.distribution.scale == pytest.approx(0.2, abs=0.01)


def test_ml_self_fit_half_cauchy():
    draws = HalfCauchy(0.1).sample(np.random.default_rng(24), 100_000)
    spec = fit_predictive_ml(draws, "half-cauchy")
    assert spec.distribution.scale == pytest.approx(0.1, abs=0.01)


def test_ml_self_fit_log_normal():
    draws = LogNormal(-2.6, 1.7).sample(np.random.default_rng(25), 100_000)
    spec = fit_predictive_ml(draws, "log-normal")
    assert spec.distribution.mu == pytest.approx(-2.6, abs=0.05)
    assert spec.distribution.sigma == pytest.approx(1.7, abs=0.05)


def test_ml_self_fit_lomax():
    draws = Lomax(4.0, 1.0).sample(np.random.default_rng(26), 100_000)
    spec = fit_predictive_ml(draws, "lomax")
    assert spec.distribution.shape == pytest.approx(4.0, rel=0.1)
    assert spec.distribution.scale == pytest.approx(1.0, rel=0.1)


def test_ml_log_likelihood_is_reported_and_consistent():
    draws = HalfNormal(0.3).sample(np.random.default_rng(27), 5000)
    spec = fit_predictive_ml(draws, "half-normal")
    recomputed = float(np.sum(spec.distribution.log_density(draws)))
    assert spec.log_likelihood == pytest.approx(recomputed)


@pytest.mark.parametrize(
    "family, generator, seed, limit",
    [
        ("half-t", HalfNormal(0.22), 5, HalfNormal),  # the df profile rises to its bound
        ("half-t", HalfNormal(0.22), 0, HalfNormal),  # the same, on a second sample
        ("lomax", Exponential(0.3), 2, Exponential),  # the scale profile rises to its bound
    ],
    ids=["half-t-converged", "half-t-second-sample", "lomax"],
)
def test_ml_degenerate_fit_returns_limit_family(family, generator, seed, limit):
    draws = generator.sample(np.random.default_rng(seed), 4000)
    spec = fit_predictive_ml(draws, family)
    assert type(spec.distribution) is limit
    assert spec.note.startswith(f"degenerate fit: {family}")
    assert spec.log_likelihood == pytest.approx(float(np.sum(spec.distribution.log_density(draws))))
    own = fit_predictive_ml(draws, limit.token)
    assert spec.distribution.scale == pytest.approx(own.distribution.scale, rel=0.01)


@pytest.mark.parametrize(
    "family,generator",
    [
        ("half-normal", HalfNormal(0.3)),
        ("exp", Exponential(0.2)),
        ("half-t", HalfStudentT(6.0, 0.3)),
        ("lomax", Lomax(4.0, 1.0)),
        ("log-normal", LogNormal(-2.0, 0.8)),
    ],
)
def test_ml_log_likelihood_at_least_moment_fit(family, generator):
    draws = generator.sample(np.random.default_rng(28), 5000)
    ml = fit_predictive_ml(draws, family)
    mm = fit_predictive_moments(draws, family)
    moment_ll = float(np.sum(mm.distribution.log_density(draws)))
    assert ml.log_likelihood >= moment_ll - 1e-6


def test_ml_requires_enough_draws():
    with pytest.raises(ValueError, match="1000"):
        fit_predictive_ml(np.full(999, 0.2), "exp")


def test_ml_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        fit_predictive_ml(np.full(2000, 0.2), "weibull")


@pytest.mark.parametrize(
    "family, zeros, cause",
    [
        ("half-cauchy", 1000, "1000 of 2000 draws are exactly 0"),
        ("half-t", 1, "1 of 2000 draws are exactly 0"),
        ("lomax", 1000, "the likelihood rises as the scale -> 0"),
    ],
    ids=["half-cauchy", "half-t", "lomax"],
)
def test_ml_likelihood_without_a_maximum_raises_fit_error(family, zeros, cause):
    # with n0 of n draws at 0 the likelihood grows without bound as the scale
    # shrinks: for any n0 under the Lomax, for df < n0/(n - n0) under the
    # half-t (the half-Cauchy's df is 1)
    draws = np.concatenate([np.zeros(zeros), HalfNormal(0.2).sample(np.random.default_rng(3), 2000 - zeros)])
    with pytest.raises(FitError, match=f"'{family}' has no maximum: {cause}"):
        fit_predictive_ml(draws, family)


@pytest.mark.parametrize("family", ["half-cauchy", "half-t", "lomax"])
def test_ml_rejects_draws_spread_beyond_the_solvers_range(family):
    draws = np.exp(np.random.default_rng(1).uniform(-350.0, 350.0, 2000))
    with pytest.raises(InfeasibleError, match=f"span 30[0-9] orders of magnitude; a {family} fit takes at most 150"):
        fit_predictive_ml(draws, family)


def test_ml_log_normal_of_a_zero_draw_fails_at_once_by_name():
    draws = np.concatenate([[0.0], HalfNormal(0.2).sample(np.random.default_rng(4), 1999)])
    with pytest.raises(InfeasibleError, match="1 of 2000 draws are exactly 0, where the log-normal"):
        fit_predictive_ml(draws, "log-normal")


def test_ml_of_constant_draws():
    draws = np.full(2000, 0.2)
    with pytest.raises(InfeasibleError, match="no spread in log draws"):
        fit_predictive_ml(draws, "log-normal")
    spec = fit_predictive_ml(draws, "half-t")
    assert spec.distribution == HalfNormal(0.2)
    assert spec.note == "degenerate fit: half-t df > 10000, half-normal limit"


@pytest.mark.parametrize(
    "draws, message",
    [
        (np.r_[-0.1, np.full(1999, 0.2)], "finite, nonnegative draws"),
        (np.r_[np.nan, np.full(1999, 0.2)], "finite, nonnegative draws"),
        (np.r_[np.inf, np.full(1999, 0.2)], "finite, nonnegative draws"),
        (np.zeros(2000), "every draw is 0"),
    ],
    ids=["negative", "nan", "inf", "all-zero"],
)
@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_ml_rejects_draws_outside_the_families_support(draws, message, family):
    with pytest.raises(InfeasibleError, match=message):
        fit_predictive_ml(draws, family)


def _pipeline_predictive():
    """The 4 x 256 predictive draws of a half-normal fit to a corpus shaped
    like the benchmark's pipeline corpus: 40 analyses of 3-18 studies,
    tau_j ~ half-normal(0.2), standard errors 0.1-0.6."""
    rng = np.random.default_rng(9191)
    sizes = rng.permutation([round(3 + 15 * ((i + 0.5) / 40) ** 1.1) for i in range(40)])
    analyses, seq = [], 0
    for j, (k, tau) in enumerate(zip(sizes, np.abs(rng.normal(0.0, 0.2, 40)))):
        mu, se = rng.normal(0.0, 0.5), rng.uniform(0.1, 0.6, k)
        y = rng.normal(mu, np.sqrt(se**2 + tau**2))
        recs = tuple(StudyRecord(f"a{j}", f"s{i}", float(y[i]), float(se[i]), seq + i) for i in range(k))
        analyses.append((f"a{j}", recs))
        seq += k
    cfg = McmcConfig(chains=4, burn_in=64, iterations=256, seed=9191)
    return run_hierarchical(MetaAnalysisCollection(tuple(analyses)), ModelSpec(), cfg).predictive.ravel()


@pytest.fixture(scope="module")
def ml_draws():
    draws = {"pipeline": _pipeline_predictive()}
    for i, g in enumerate([HalfNormal(0.3), HalfStudentT(5.0, 0.2), Exponential(0.2), HalfCauchy(0.1),
                           LogNormal(-2.0, 0.8), Lomax(3.0, 0.5)]):
        draws[g.token] = g.sample(np.random.default_rng(40 + i), 3000)
    return draws


def _log_params(d):
    """Parameters on the scale the polish moves them: logs, but the
    log-normal's location as it is."""
    return [p if (d.token, i) == ("log-normal", 0) else math.log(p) for i, p in enumerate(d._params())]


def _from_log_params(d, v):
    return type(d)(*(p if (d.token, i) == ("log-normal", 0) else math.exp(p) for i, p in enumerate(v)))


@pytest.mark.parametrize("source", ["pipeline", *FIT_FAMILIES])
@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_ml_fit_is_a_maximum_of_the_likelihood(ml_draws, family, source):
    from scipy import optimize

    x = ml_draws[source]
    spec = fit_predictive_ml(x, family)
    d = spec.distribution
    if spec.note is not None:  # a degenerate fit is the limit family's own ML fit
        assert d == fit_predictive_ml(x, d.token).distribution
        return
    ll = spec.log_likelihood
    # 1e-11 relative is the rounding of a log likelihood itself: along a
    # flat profile (half-t df 731 on half-normal draws) it wobbles by 1.5e-12
    noise = 1e-11 * abs(ll)
    for i, p in enumerate(d._params()):
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            moved = list(d._params())
            moved[i] = p * factor
            assert float(np.sum(type(d)(*moved).log_density(x))) <= ll + noise

    def neg_ll(v):
        return -float(np.sum(_from_log_params(d, v).log_density(x)))

    polish = optimize.minimize(neg_ll, _log_params(d), method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 4000})
    assert -polish.fun <= ll + 1e-9 * abs(ll)


# -- route 3b: moment inversion -------------------------------------------------


def test_moment_fit_half_normal_closed_form():
    draws = positive_draws_with_moments(0.1755, 0.05, seed=31)
    spec = fit_predictive_moments(draws, "half-normal")
    assert spec.method == "direct_fit_moments"
    assert spec.distribution.scale == pytest.approx(0.1755 / math.sqrt(2.0 / math.pi))


def test_moment_fit_exponential_is_sample_mean():
    draws = positive_draws_with_moments(0.27, 0.1, seed=32)
    spec = fit_predictive_moments(draws, "exp")
    assert spec.distribution.scale == pytest.approx(0.27)


def test_moment_fit_half_t_matches_dist_op():
    draws = positive_draws_with_moments(0.5, 0.4, seed=33)
    spec = fit_predictive_moments(draws, "half-t")
    expected = half_t_moment_fit(0.5, 0.4)
    assert spec.distribution.df == pytest.approx(expected.df, rel=1e-9)
    assert spec.distribution.scale == pytest.approx(expected.scale, rel=1e-9)


def test_moment_fit_half_t_infeasible_cv_advises_half_normal():
    draws = positive_draws_with_moments(0.5, 0.2, seed=34)  # cv = 0.4
    with pytest.raises(InfeasibleError, match="half-normal"):
        fit_predictive_moments(draws, "half-t")


def test_moment_fit_lomax_recovers_exact_moments():
    target = Lomax(9.9, 1.5)
    m = target.moments()
    draws = positive_draws_with_moments(m.mean, m.sd, seed=35)
    spec = fit_predictive_moments(draws, "lomax")
    assert spec.distribution.shape == pytest.approx(9.9, rel=1e-9)
    assert spec.distribution.scale == pytest.approx(1.5, rel=1e-9)


def test_moment_fit_lomax_needs_cv_above_one():
    draws = positive_draws_with_moments(0.3, 0.2, seed=36)
    with pytest.raises(InfeasibleError, match="exponential"):
        fit_predictive_moments(draws, "lomax")


def test_moment_fit_log_normal_recovers_exact_moments():
    target = LogNormal(-2.6, 0.5)
    m = target.moments()
    draws = positive_draws_with_moments(m.mean, m.sd, seed=37)
    spec = fit_predictive_moments(draws, "log-normal")
    assert spec.distribution.mu == pytest.approx(-2.6, rel=1e-9)
    assert spec.distribution.sigma == pytest.approx(0.5, rel=1e-9)


def test_moment_fit_half_cauchy_impossible():
    with pytest.raises(ValueError, match="moment"):
        fit_predictive_moments(np.full(100, 0.1), "half-cauchy")


def test_moment_fit_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        fit_predictive_moments(np.full(100, 0.1), "gamma")


def test_moment_self_fit_half_t_converges():
    draws = HalfStudentT(8.2, 0.2).sample(np.random.default_rng(38), 100_000)
    spec = fit_predictive_moments(draws, "half-t")
    assert spec.distribution.df == pytest.approx(8.2, abs=1.0)
    assert spec.distribution.scale == pytest.approx(0.2, abs=0.01)


# -- approximation table ---------------------------------------------------------


#: predictive draws for the tables whose prior rows are checked
TAU_STAR = np.abs(np.random.default_rng(41).normal(0, 0.2, (4, 500)))


def predictive_fit(tau_star, family="half-normal"):
    """A one-analysis fit of a one-hyperparameter family whose predictive
    draws are the (chains, kept) array ``tau_star``."""
    zeros = np.zeros_like(tau_star)
    table = np.stack([np.full_like(tau_star, 0.2), zeros, np.full_like(tau_star, 0.1), tau_star, zeros], axis=-1)
    return PosteriorSamples(family=family, table=table, analysis_ids=("a",))


FIT = predictive_fit(TAU_STAR)


def _table_row(rows, label_prefix):
    matches = [r for r in rows if r["label"].startswith(label_prefix)]
    assert matches, f"no row starting with {label_prefix!r}"
    return matches[0]


def test_table_half_normal_and_half_t_rows():
    specs = [
        PriorSpec(HalfNormal(0.22), "point_estimate(mean)"),
        PriorSpec(HalfStudentT(8.2, 0.20), "mixture_match"),
    ]
    rows = approximation_table(specs, FIT)
    hn = _table_row(rows, "half-normal")
    assert (round(hn["mean"], 2), round(hn["sd"], 2)) == (0.18, 0.13)
    assert (round(hn["median"], 2), round(hn["q95"], 2), round(hn["q99"], 2)) == (0.15, 0.43, 0.57)
    ht = _table_row(rows, "half-t")
    assert (round(ht["mean"], 2), round(ht["sd"], 2)) == (0.18, 0.15)
    assert (round(ht["median"], 2), round(ht["q95"], 2), round(ht["q99"], 2)) == (0.14, 0.46, 0.67)


def test_table_heavy_tail_rows():
    specs = [
        PriorSpec(Lomax(9.9, 1.5), "mixture_match"),
        PriorSpec(LogNormal(-2.6, 1.7), "mixture_match"),
        PriorSpec(HalfCauchy(0.10), "point_estimate(mean)"),
    ]
    rows = approximation_table(specs, FIT)
    lo = _table_row(rows, "lomax")
    assert (round(lo["mean"], 2), round(lo["sd"], 2)) == (0.17, 0.19)
    assert (round(lo["median"], 2), round(lo["q95"], 2), round(lo["q99"], 2)) == (0.11, 0.53, 0.89)
    ln = _table_row(rows, "log-normal")
    assert (round(ln["mean"], 2), round(ln["sd"], 2)) == (0.32, 1.30)
    assert (round(ln["median"], 2), round(ln["q95"], 2), round(ln["q99"], 2)) == (0.07, 1.22, 3.88)
    hc = _table_row(rows, "half-cauchy")
    assert hc["mean"] is None and hc["sd"] is None
    assert (round(hc["median"], 2), round(hc["q95"], 2), round(hc["q99"], 2)) == (0.10, 1.27, 6.37)


def test_table_empirical_row_comes_first():
    rows = approximation_table([PriorSpec(HalfNormal(0.2), "point_estimate(mean)")], FIT)
    assert rows[0]["label"] == "MCMC"
    assert rows[0]["mean"] == pytest.approx(TAU_STAR.mean())
    assert rows[0]["median"] == pytest.approx(np.quantile(TAU_STAR, 0.5))
    assert len(rows) == 2


def test_table_empirical_row_leaves_out_the_moments_the_family_lacks():
    spec = PriorSpec(HalfCauchy(0.1), "point_estimate(mean)")
    [hc, _] = approximation_table([spec], predictive_fit(TAU_STAR, "half-cauchy"))
    [hn, _] = approximation_table([spec], FIT)
    draws = summarize_samples(TAU_STAR)
    assert hn == {"label": "MCMC", **draws}
    assert hc == {**hn, "mean": None, "sd": None}


def test_table_requires_specs():
    with pytest.raises(ValueError):
        approximation_table([], FIT)


def test_format_table_marks_undefined_cells():
    rows = approximation_table([PriorSpec(HalfCauchy(0.1), "point_estimate(mean)")], FIT)
    text = format_approximation_table(rows)
    lines = text.splitlines()
    assert "prior" in lines[0] and "99%" in lines[0]
    assert lines[1].startswith("MCMC") and "-" not in lines[1]
    assert lines[2].startswith("half-cauchy(0.1)")
    assert "-" in lines[2]
    assert "6.37" in lines[2]


def test_table_row_of_half_cauchy_prior_is_a_plain_dict():
    d = HalfCauchy(0.1)
    [_, row] = approximation_table([PriorSpec(d, "point_estimate(mean)")], FIT)
    assert row == {
        "label": "half-cauchy(0.1)",
        "mean": None,
        "sd": None,
        "median": float(d.quantile(0.5)),
        "q95": float(d.quantile(0.95)),
        "q99": float(d.quantile(0.99)),
    }


def test_q95_prior_stochastically_dominates_mean_prior():
    draws = np.random.default_rng(42).exponential(0.2, 20_000)
    run = fake_run("half-normal", {"scale": draws})
    lo = point_estimate_prior(run, "mean").distribution
    hi = point_estimate_prior(run, "q95").distribution
    grid = np.linspace(0.001, 2.0, 400)
    assert np.all(hi.cdf(grid) <= lo.cdf(grid) + 1e-12)


# -- PriorSpec serialization ------------------------------------------------------


def test_prior_spec_text_is_rounded_canonical_form():
    spec = PriorSpec(HalfStudentT(8.12831573264689, 0.19894516561113754), "mixture_match")
    assert spec.text() == "half-t(8.13,0.2)"
    assert spec.rounded_distribution() == HalfStudentT(8.13, 0.2)


def test_prior_spec_text_keeps_two_significant_digits_below_rounding():
    spec = PriorSpec(HalfStudentT(8.2, 0.0043217), "mixture_match")
    assert spec.text() == "half-t(8.2,0.0043)"
    assert spec.rounded_params() == (8.2, 0.0043)
    assert PriorSpec(Exponential(1e-9), "given").text() == "exp(1e-09)"
    # a location that rounds to 0 keeps its sign and two digits; a zero stays 0
    assert PriorSpec(LogNormal(-0.0012345, 0.5), "given").text() == "log-normal(-0.0012,0.5)"
    assert PriorSpec(LogNormal(0.0, 0.5), "given").text() == "log-normal(0,0.5)"
    assert prior_to_dict(spec)["rounded"] == [8.2, 0.0043]


def test_prior_to_dict_keys_and_values():
    spec = PriorSpec(
        HalfNormal(0.21949),
        "point_estimate(mean)",
        source="corpus-v1",
        note="conservative",
        log_likelihood=-12.5,
    )
    d = prior_to_dict(spec)
    assert d["family"] == "half-normal"
    assert d["params"] == [0.21949]
    assert d["rounded"] == [0.22]
    assert d["text"] == "half-normal(0.22)"
    assert d["method"] == "point_estimate(mean)"
    assert d["source"] == "corpus-v1"
    assert d["rounding"] == 2
    assert d["note"] == "conservative"
    assert d["log_likelihood"] == -12.5


def test_prior_to_dict_omits_absent_optionals():
    d = prior_to_dict(PriorSpec(Exponential(0.2), "direct_fit_moments"))
    assert "note" not in d and "log_likelihood" not in d
