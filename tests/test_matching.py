"""Moment-matching rules: half-t cv inversion, scale-mixture matches,
and the log-normal scale-form parametrization."""

import math

import numpy as np
import pytest

from hetprior.dist import (
    HALF_NORMAL_CV_LIMIT,
    NU_MAX,
    Exponential,
    HalfNormal,
    HalfStudentT,
    InfeasibleError,
    InvGamma,
    ScaledInvChi,
    exp_mixture_lomax,
    half_t_cv,
    half_t_moment_fit,
    inv_chi_cv,
    lognormal_from_theta,
    scale_mixture_half_t,
    solve_half_t_nu,
)


def test_half_t_cv_worked_example():
    assert half_t_cv(13.6) == pytest.approx(0.8, abs=1e-3)


def test_half_t_cv_half_normal_limit():
    assert half_t_cv(1e6) == pytest.approx(HALF_NORMAL_CV_LIMIT, abs=1e-3)
    assert HALF_NORMAL_CV_LIMIT == pytest.approx(math.sqrt(math.pi / 2.0 - 1.0))


def test_half_t_cv_strictly_decreasing():
    nus = np.concatenate([np.linspace(2.05, 10.0, 80), np.geomspace(10.0, 1e4, 80)[1:]])
    vals = [half_t_cv(v) for v in nus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > HALF_NORMAL_CV_LIMIT for v in vals)


def test_half_t_cv_matches_moment_ratio():
    # cv formula must agree with sd/mean computed from the moments
    for nu in (2.5, 4.0, 8.2, 13.6, 50.0):
        m = HalfStudentT(nu, 0.37).moments()
        assert half_t_cv(nu) == pytest.approx(m.sd / m.mean, rel=1e-12)


def test_half_t_cv_domain_error():
    with pytest.raises(ValueError):
        half_t_cv(2.0)


def test_solve_half_t_nu_worked_example():
    assert solve_half_t_nu(0.8) == pytest.approx(13.6, abs=0.1)


def test_solve_half_t_nu_residual():
    for cv in (0.76, 0.8, 0.88, 1.2, 3.0):
        nu = solve_half_t_nu(cv)
        assert half_t_cv(nu) == pytest.approx(cv, abs=1e-8)


def test_solve_half_t_nu_infeasible():
    with pytest.raises(InfeasibleError):
        solve_half_t_nu(0.70)
    with pytest.raises(InfeasibleError):
        solve_half_t_nu(HALF_NORMAL_CV_LIMIT)


def test_solve_half_t_nu_caps_with_warning():
    with pytest.warns(RuntimeWarning):
        nu = solve_half_t_nu(HALF_NORMAL_CV_LIMIT + 1e-12)
    assert nu == NU_MAX


def test_half_t_moment_fit_worked_example():
    fit = half_t_moment_fit(0.5, 0.4)
    assert fit.df == pytest.approx(13.6, abs=0.1)
    assert fit.scale == pytest.approx(0.59, abs=5e-3)


def test_half_t_moment_fit_is_cv_inversion():
    # df comes from inverting the cv, scale from matching the mean:
    # the fit must reproduce the requested moments exactly
    fit = half_t_moment_fit(0.17, 0.15)
    assert fit.df == pytest.approx(solve_half_t_nu(0.15 / 0.17), rel=1e-12)
    m = fit.moments()
    assert m.mean == pytest.approx(0.17, abs=1e-9)
    assert m.sd == pytest.approx(0.15, abs=1e-9)


def test_half_t_moment_fit_recovers_known_parameters():
    # moments of half-t(8.2, 0.2) fed back in must recover (8.2, 0.2)
    m = HalfStudentT(8.2, 0.20).moments()
    fit = half_t_moment_fit(m.mean, m.sd)
    assert fit.df == pytest.approx(8.2, abs=1e-6)
    assert fit.scale == pytest.approx(0.20, abs=1e-8)


@pytest.mark.parametrize("mean,sd", [(0.5, 0.4), (0.17, 0.15), (1.0, 0.0), (2.0, 5.0)],
                         ids=["worked", "posterior", "degenerate-cv0", "heavy"])
def test_half_t_moment_fit_fixed_point(mean, sd):
    if sd / mean <= HALF_NORMAL_CV_LIMIT:
        pytest.skip("infeasible cv")
    fit = half_t_moment_fit(mean, sd)
    m = fit.moments()
    assert m.mean == pytest.approx(mean, abs=1e-6)
    assert m.sd == pytest.approx(sd, abs=1e-6)


def test_inv_chi_cv_monotone_decreasing():
    nus = np.concatenate([np.linspace(2.05, 10.0, 60), np.geomspace(10.0, 1e4, 60)[1:]])
    vals = [inv_chi_cv(v) for v in nus]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_inv_chi_cv_matches_moment_ratio():
    for nu in (3.0, 8.2, 20.0):
        m = ScaledInvChi(nu, 1.3).moments()
        assert inv_chi_cv(nu) == pytest.approx(m.sd / m.mean, rel=1e-12)


def test_scale_mixture_half_t_posterior_summaries():
    fit = scale_mixture_half_t(0.22, 0.064)
    assert fit.df == pytest.approx(8.2, abs=0.2)
    assert fit.scale == pytest.approx(0.20, abs=0.01)


def test_scale_mixture_half_t_degenerate_limit():
    fit = scale_mixture_half_t(0.31, 0.0)
    assert fit.df == NU_MAX
    assert fit.scale == pytest.approx(0.31, rel=1e-3)


def test_scale_mixture_half_t_monte_carlo_oracle():
    # draw the scale from the matched scaled inverse chi, then a half-normal
    # conditional on it; the marginal must match the fitted half-t
    mean_s, sd_s = 0.22, 0.064
    fit = scale_mixture_half_t(mean_s, sd_s)
    rng = np.random.default_rng(99)
    n = 1_000_000
    # reconstruct the mixing distribution: df from the cv, scale from the mean
    mix_unit = ScaledInvChi(fit.df, math.sqrt(fit.df))
    mix = ScaledInvChi(fit.df, math.sqrt(fit.df) * mean_s / mix_unit.mean())
    s = mix.sample(rng, n)
    x = np.abs(rng.standard_normal(n)) * s
    for p in (0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        assert float(np.quantile(x, p)) == pytest.approx(fit.quantile(p), abs=0.01)


def test_exp_mixture_lomax_closed_forms():
    fit = exp_mixture_lomax(0.2, 0.2)  # cv = 1
    assert fit.shape == pytest.approx(3.0)
    assert fit.scale == pytest.approx(0.4)
    fit = exp_mixture_lomax(1.0, 0.5)  # cv = 1/2
    assert fit.shape == pytest.approx(6.0)
    assert fit.scale == pytest.approx(5.0)


def test_exp_mixture_lomax_monte_carlo_oracle():
    mean_s, sd_s = 0.2, 0.2
    fit = exp_mixture_lomax(mean_s, sd_s)
    # mixing distribution: inverse gamma with the target mean and sd
    mix = InvGamma(fit.shape, fit.scale)
    assert mix.moments().mean == pytest.approx(mean_s, rel=1e-12)
    assert mix.moments().sd == pytest.approx(sd_s, rel=1e-12)
    rng = np.random.default_rng(123)
    n = 1_000_000
    s = mix.sample(rng, n)
    x = rng.standard_exponential(n) * s
    for p in (0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        assert float(np.quantile(x, p)) == pytest.approx(fit.quantile(p), abs=0.01)


def test_lognormal_from_theta_moment_table():
    d = lognormal_from_theta(math.exp(-2.6), 1.7)
    m = d.moments()
    assert round(d.quantile(0.5), 2) == 0.07
    assert round(m.mean, 2) == 0.32
    assert d.quantile(0.5) == pytest.approx(math.exp(-2.6), rel=1e-12)
    assert m.mean == pytest.approx(math.exp(-2.6) * math.sqrt(math.exp(1.7**2)), rel=1e-12)
    assert m.sd / m.mean == pytest.approx(math.sqrt(math.expm1(1.7**2)), rel=1e-9)


def test_lognormal_cv_depends_only_on_shape():
    a = lognormal_from_theta(0.05, 1.1).moments()
    b = lognormal_from_theta(0.50, 1.1).moments()
    assert a.sd / a.mean == pytest.approx(b.sd / b.mean, rel=1e-12)


def test_lognormal_shape_to_zero_degenerates():
    theta = 0.13
    d = lognormal_from_theta(theta, 1e-9)
    m = d.moments()
    assert d.quantile(0.5) == pytest.approx(theta, rel=1e-12)
    assert m.mean == pytest.approx(theta, rel=1e-9)


def test_half_normal_is_half_t_limit_of_mixture():
    # tiny mixing sd: the fitted half-t is numerically the plain half-normal
    # with scale mean_s (capped df, flagged by the warning)
    with pytest.warns(RuntimeWarning):
        fit = scale_mixture_half_t(0.22, 1e-9)
    hn = HalfNormal(0.22)
    for p in (0.1, 0.5, 0.9, 0.99):
        assert fit.quantile(p) == pytest.approx(hn.quantile(p), rel=1e-3)
