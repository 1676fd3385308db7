"""Tests for the single meta-analysis module (grid Bayes + frequentist suite)."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special

from hetprior import cli, metaanalysis, sampler
from hetprior.data import parse_collection
from hetprior.dist import (
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    LogNormal,
    Lomax,
    Normal,
    Uniform,
)
from hetprior.metaanalysis import (
    DlResult,
    GridDensity,
    GridError,
    LabeledInterval,
    SingleMeta,
    UndefinedEstimatorError,
    _pool_at,
    _reduced_mixture,
    bayes_ma,
    ci_suite,
    dl_estimate,
    forest_rows,
    pm_estimate,
    single_meta,
    tau_estimate_collection,
    tau_marginal,
)
from hetprior.sampler import McmcConfig, ModelSpec, run_hierarchical

T_1_975 = 12.706204736432095
Z_975 = 1.959963984540054


def random_meta(rng, k=5, spread=1.0):
    return SingleMeta(
        y=tuple(rng.normal(0.0, spread, k)),
        sigma=tuple(rng.uniform(0.2, 1.0, k)),
    )


# -- SingleMeta ------------------------------------------------------------------


def test_single_meta_basics():
    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.6))
    assert sm.k == 2


@pytest.mark.parametrize(
    "y,sigma",
    [
        ((), ()),
        ((0.1,), (0.5, 0.6)),
        ((0.1, float("nan")), (0.5, 0.6)),
        ((0.1, 0.2), (0.5, 0.0)),
        ((0.1, 0.2), (0.5, -1.0)),
        ((0.1, 0.2), (0.5, float("inf"))),
        ((0.1, 0.2), (0.5, 1e-170)),
        ((0.1, 0.2), (0.5, 1e-100)),
        ((0.1, 0.2), (0.5, 1e155)),
        ((0.1, -2e70), (0.5, 0.6)),
    ],
)
def test_single_meta_rejects_bad_input(y, sigma):
    with pytest.raises(ValueError):
        SingleMeta(y=y, sigma=sigma)


def test_single_meta_from_collection():
    text = (
        "analysis_id,study_id,estimate,std_err\n"
        "a,s1,0.1,0.5\n"
        "a,s2,0.3,0.4\n"
        "b,s1,0.0,1.0\n"
    )
    c = parse_collection(text)
    sm = single_meta(c, "a")
    assert sm.y == (0.1, 0.3)
    assert sm.sigma == (0.5, 0.4)
    with pytest.raises(ValueError, match="analysis_id"):
        single_meta(c)
    with pytest.raises(ValueError, match=r"no analysis 'zz' in the collection; it holds a, b$"):
        single_meta(c, "zz")


# -- tau marginal ----------------------------------------------------------------


def test_single_study_posterior_equals_prior():
    sm = SingleMeta(y=(0.4,), sigma=(0.5,))
    prior = HalfStudentT(8.2, 0.20)
    td = tau_marginal(sm, prior)
    sup = np.max(np.abs(td.density - prior.density(td.grid)))
    assert sup < 1e-3
    assert abs(np.cumsum(td.cell_mass)[-1] - 1.0) < 1e-12


def test_two_identical_studies_barely_move_the_prior():
    sm = SingleMeta(y=(0.2, 0.2), sigma=(0.5, 0.5))
    prior = HalfStudentT(8.2, 0.20)
    td = tau_marginal(sm, prior)
    assert abs(td.quantile(0.5) - prior.quantile(0.5)) < 0.02


def test_tau_marginal_matches_mcmc_oracle():
    # pin the hyperparameter so the hierarchical sampler reduces to a fixed
    # half-normal(0.3) heterogeneity prior on a single analysis
    y = (0.1, 0.5, -0.2, 0.3)
    sigma = (0.2, 0.25, 0.3, 0.22)
    rows = ["analysis_id,study_id,estimate,std_err"]
    rows += [f"a,s{i},{yi},{si}" for i, (yi, si) in enumerate(zip(y, sigma))]
    c = parse_collection("\n".join(rows) + "\n")
    m = ModelSpec(
        het_family="half-normal",
        scale_hyperprior=Uniform(0.3 * (1 - 1e-9), 0.3 * (1 + 1e-9)),
    )
    s = run_hierarchical(c, m, McmcConfig(chains=2, burn_in=500, iterations=6000, seed=77))
    mcmc_median = float(np.quantile(s.draws("tau[a]"), 0.5))
    td = tau_marginal(SingleMeta(y=y, sigma=sigma), HalfNormal(0.3))
    assert abs(td.quantile(0.5) - mcmc_median) < 0.01


def test_analyze_weighs_tau_cells_as_the_sampler_does():
    """One analysis under the fixed half-normal(0.3) that the oracle test
    pins: each of ``analyze``'s tau cell masses is the sampler's M_g Lbar_g
    from ``_cell_likelihoods`` within float32 rounding, and node i's effect
    weight is L_i (F(t_i+1) - F(t_i-1)) / 2, so each cell gets its mass."""
    y, sigma = (0.1, 0.5, -0.2, 0.3), (0.2, 0.25, 0.3, 0.22)
    prior, m = HalfNormal(0.3), ModelSpec()
    mu_prior = Normal(m.effect_prior_mean, m.effect_prior_sd)
    sm = SingleMeta(y=y, sigma=sigma)
    td, _, _, omega = metaanalysis._tau_posterior(sm, prior, mu_prior)
    se2, offsets = np.square(sigma), np.array([0, len(y)])
    lbar = sampler._cell_likelihoods(np.array(y), se2, offsets, mu_prior, td.grid)[0][:, 0]
    prior_mass = np.diff(prior.cdf(td.grid))
    expected = prior_mass * lbar.astype(float)
    np.testing.assert_allclose(td.cell_mass, expected / expected.sum(), rtol=4 * 2.0**-24, atol=0)
    w, total_w, _, q = _pool_at(sm, td.grid[:, None], mu_prior)
    lik = np.exp(0.5 * (np.log(w).sum(axis=1) - np.log(total_w) - q))
    node = lik * (np.append(prior_mass, 0.0) + np.insert(prior_mass, 0, 0.0)) / 2.0
    np.testing.assert_allclose(omega, node / node.sum(), rtol=1e-10, atol=0)


def test_tau_marginal_normalizes_heavy_tailed_priors():
    sm = SingleMeta(y=(0.1, 0.4), sigma=(0.3, 0.3))
    td = tau_marginal(sm, HalfCauchy(0.1))
    assert abs(np.cumsum(td.cell_mass)[-1] - 1.0) < 1e-12
    assert np.all(td.density >= 0.0)


def test_tau_marginal_extends_past_bounded_priors():
    sm = SingleMeta(y=(0.1,), sigma=(0.5,))
    td = tau_marginal(sm, Uniform(0.0, 0.8))
    assert abs(np.cumsum(td.cell_mass)[-1] - 1.0) < 1e-12
    # posterior == prior: flat at 1/0.8 inside the support, the cell
    # straddling the support edge weighed by its prior mass alone
    inside = td.grid < 0.79
    assert np.allclose(td.density[inside], 1.25, rtol=1e-12, atol=0.0)
    assert np.all(td.density[td.grid > 0.81] == 0.0)


def test_tau_marginal_rejects_prior_without_finite_quantile():
    class Diverging(HalfNormal):
        def quantile(self, p):
            return float("inf")

    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.5))
    with pytest.raises(GridError, match="quantile"):
        tau_marginal(sm, Diverging(0.2))


@pytest.mark.parametrize("prior", [LogNormal(800.0, 1.0), Lomax(0.001, 1.0)], ids=["log-normal", "lomax"])
def test_bayes_ma_refuses_a_prior_whose_quantile_overflows_without_a_warning(prior):
    # under this suite's error::RuntimeWarning filter an overflow warning of
    # the quantile would surface instead of the GridError that names the cause
    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.5))
    with pytest.raises(GridError, match=r"has no finite positive 0\.9999 quantile"):
        bayes_ma(sm, prior)


@pytest.mark.parametrize("prior", [Normal(0.0, 1.0), Uniform(-1.0, 1.0)])
def test_tau_marginal_rejects_prior_with_mass_below_zero(prior):
    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.5))
    with pytest.raises(ValueError, match=rf"prior {re.escape(str(prior))} has cdf\(0\) = 0\.5"):
        tau_marginal(sm, prior)


def test_tau_marginal_rejects_nondecaying_posterior():
    class ImproperFlat(HalfNormal):
        def quantile(self, p):
            return 1.0

        def log_density(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    sm = SingleMeta(y=(0.1,), sigma=(0.5,))
    with pytest.raises(GridError, match="decay"):
        tau_marginal(sm, ImproperFlat(0.2))


def test_cdf_table_is_scipys_cumulative_trapezoid_bit_for_bit():
    rng = np.random.default_rng(16)
    for n in (2, 3, 17, 2001, 40001):
        for scale in (1e-300, 1e-8, 1.0, 1e5):
            grid = np.cumsum(rng.exponential(1.0, n))
            density = scale * rng.exponential(1.0, n)
            cdf = integrate.cumulative_trapezoid(density, grid, initial=0.0)
            table = GridDensity(grid=grid, density=density)._cdf_table()
            assert table.tobytes() == (cdf / cdf[-1]).tobytes()


# -- Bayesian meta-analysis -------------------------------------------------------


def test_symmetric_data_centers_posterior_at_zero():
    sm = SingleMeta(y=(0.0, 0.0), sigma=(1.0, 1.0))
    res = bayes_ma(sm, HalfNormal(0.5))
    assert res.mu_mean == pytest.approx(0.0, abs=1e-12)
    assert res.mu_median == pytest.approx(0.0, abs=1e-9)
    assert res.mu_interval[0] == pytest.approx(-res.mu_interval[1], abs=1e-9)


def test_degenerate_prior_reproduces_common_effect_interval():
    sm = SingleMeta(y=(0.1, 0.7, 0.4), sigma=(0.3, 0.4, 0.5))
    res = bayes_ma(sm, HalfNormal(1e-8))
    w = 1.0 / np.asarray(sm.sigma) ** 2
    mu = float(np.sum(w * sm.y) / w.sum())
    half = Z_975 * math.sqrt(1.0 / w.sum())
    assert res.mu_interval[0] == pytest.approx(mu - half, abs=1e-3)
    assert res.mu_interval[1] == pytest.approx(mu + half, abs=1e-3)
    assert res.mu_mean == pytest.approx(mu, abs=1e-3)


def test_heterogeneity_prior_widens_equal_study_interval():
    sm = SingleMeta(y=(0.41, 0.41), sigma=(0.3, 0.3))
    res = bayes_ma(sm, HalfStudentT(8.2, 0.20))
    normal = next(ci for ci in res.comparators if ci.label == "normal")
    bayes_width = res.mu_interval[1] - res.mu_interval[0]
    normal_width = normal.hi - normal.lo
    assert 1.0 < bayes_width / normal_width < 1.3


def test_mu_density_integrates_to_one_and_sd_floor():
    rng = np.random.default_rng(3)
    for _ in range(3):
        sm = random_meta(rng)
        res = bayes_ma(sm, HalfNormal(0.4))
        assert abs(res.mu_density.integral() - 1.0) < 1e-6
        v0 = 1.0 / np.sum(1.0 / np.asarray(sm.sigma) ** 2)
        assert res.mu_sd >= math.sqrt(v0) - 1e-12
        lo, hi = res.mu_interval
        assert lo <= res.mu_median <= hi


def capped_meta():
    """Two studies 1e-4 apart with standard errors 1e-4: under Lomax(9.9, 1.5)
    the narrowest reduced component is so much narrower than the window the
    heavy tau tail opens that the effect grid hits its 40 001-point cap."""
    return SingleMeta(y=(0.0, 1e-4), sigma=(1e-4, 1e-4))


def tiny_se_meta():
    """k = 8 studies with standard errors <= 2e-4 against a tau of 0.3."""
    rng = np.random.default_rng(12)
    sigma = rng.uniform(5e-5, 2e-4, 8)
    return SingleMeta(y=tuple(rng.normal(0.2, np.sqrt(sigma**2 + 0.09))), sigma=tuple(sigma))


def _conditionals(sm, res, mu_prior):
    """Mixture weights, means and variances of the effect conditionals of
    ``res``'s tau posterior, whose weights and cell masses both sum to 1."""
    td, total_w, mu_hat, omega = metaanalysis._tau_posterior(sm, res.prior, mu_prior)
    assert np.array_equal(td.cell_mass, res.tau_density.cell_mass)
    assert abs(np.cumsum(td.cell_mass)[-1] - 1.0) < 1e-12
    assert abs(omega.sum() - 1.0) < 1e-12
    return omega, mu_hat, 1.0 / total_w


def _mixture_at(x, weight, mean, sd):
    """sum_c weight_c N(x; mean_c, sd_c^2) as one (rows x components) array
    expression: the mixture formula written without blocking."""
    norm = weight / (sd * math.sqrt(2.0 * math.pi))
    return (norm[None, :] * np.exp(-0.5 * ((x[:, None] - mean[None, :]) / sd[None, :]) ** 2)).sum(
        axis=1
    )


def one_shot_mu_density(sm, res, mu_prior, rows):
    """The effect density at ``mu_grid[rows]`` summed over every cell of the
    tau grid: the full mixture the reduced one approximates."""
    omega, mu_hat, v = _conditionals(sm, res, mu_prior)
    return _mixture_at(res.mu_density.grid[rows], omega, mu_hat, np.sqrt(v))


def _case(capped):
    if capped:
        return capped_meta(), Lomax(9.9, 1.5), None
    sm = random_meta(np.random.default_rng(4), k=7)
    return sm, HalfStudentT(8.2, 0.20), Normal(0.0, 2.0)


@pytest.mark.parametrize("capped", [False, True])
def test_blocked_mu_density_equals_one_shot_formula(capped):
    sm, prior, mu_prior = _case(capped)
    res = bayes_ma(sm, prior, mu_prior)
    n = res.mu_density.grid.size
    assert n == (metaanalysis._MU_GRID_CAP if capped else metaanalysis._MU_GRID_FLOOR)
    rows = slice(5, None, 97) if capped else slice(None)
    components = _reduced_mixture(*_conditionals(sm, res, mu_prior))
    assert res.mu_components == components[0].size
    expected = _mixture_at(res.mu_density.grid[rows], *components)
    assert np.array_equal(res.mu_density.density[rows], expected)


def _assert_reduced_density_close(sm, prior, mu_prior):
    res = bayes_ma(sm, prior, mu_prior)
    dens = res.mu_density.density
    assert np.all(np.isfinite(dens))
    rows = slice(None, None, 13) if dens.size > 5000 else slice(None)
    full = one_shot_mu_density(sm, res, mu_prior, rows)
    assert np.max(np.abs(dens[rows] - full)) <= 1e-4 * full.max()
    return res


@pytest.mark.parametrize("capped", [False, True])
def test_reduced_mu_density_matches_full_mixture(capped):
    res = _assert_reduced_density_close(*_case(capped))
    assert 1 <= res.mu_components < 500


def test_tiny_standard_errors_stay_far_below_the_grid_cap():
    # the narrowest tau-cell conditional (sd ~ 5e-5) does not set the step:
    # the reduction merges it into components the step resolves in 736 points
    res = _assert_reduced_density_close(tiny_se_meta(), Lomax(9.9, 1.5), None)
    assert res.mu_density.grid.size == 736


def _sweep_cases():
    """The random shapes of the reduced-density sweep: k = 1 to 30, the
    paper's priors and a half-Cauchy(1), every second case with an effect
    prior."""
    rng = np.random.default_rng(20)
    priors = TABLE_PRIORS + [HalfCauchy(1.0)]
    for n in range(24):
        k = int(rng.integers(1, 31))
        sm = SingleMeta(y=tuple(rng.normal(0.0, 0.5, k)), sigma=tuple(rng.uniform(0.05, 1.0, k)))
        yield sm, priors[n % len(priors)], Normal(0.0, 2.0) if n % 2 else None


def test_reduced_mu_density_matches_full_mixture_random_sweep():
    for case in _sweep_cases():
        _assert_reduced_density_close(*case)


def test_effect_grid_floor_moves_no_summary(monkeypatch):
    # the floor sets only where Newton starts the effect quantiles: under a
    # 1201-point floor every other summary is the same bit for bit
    cases = list(_sweep_cases())
    new = [bayes_ma(*case) for case in cases]
    # the sweep reaches the floor, so the two runs differ
    assert min(r.mu_density.grid.size for r in new) == metaanalysis._MU_GRID_FLOOR
    monkeypatch.setattr(metaanalysis, "_MU_GRID_FLOOR", 1201)
    old = [bayes_ma(*case) for case in cases]
    for a, b in zip(old, new):
        assert (a.mu_mean, a.mu_sd, a.mu_components) == (b.mu_mean, b.mu_sd, b.mu_components)
        assert (a.tau_median, a.tau_interval) == (b.tau_median, b.tau_interval)
        assert np.array_equal(a.tau_density.grid, b.tau_density.grid)
        assert np.array_equal(a.tau_density.density, b.tau_density.density)
        for x, y in zip((a.mu_median, *a.mu_interval), (b.mu_median, *b.mu_interval)):
            assert abs(x - y) <= 2.0 * (1e-12 + metaanalysis._RTOL * abs(x))
        assert abs(b.mu_density.integral() - 1.0) < 1e-6


@pytest.mark.parametrize("scale", [0.1, 1.0])
def test_effect_window_holds_all_but_1e7_at_each_end(scale):
    """One study under a half-Cauchy: the effect window reaches its 1e-7
    target at each end, which 200 steps of 2 sd left at 3.7e-7 (scale 0.1)
    and 3.0e-7 (scale 1), and one step less would not."""
    sm = SingleMeta(y=(0.3,), sigma=(0.2,))
    res = bayes_ma(sm, HalfCauchy(scale))
    omega, mu_hat, v = _conditionals(sm, res, None)
    lo, hi = res.mu_density.grid[[0, -1]]
    step = 2.0 * res.mu_sd
    ends = np.array([lo, hi, lo + step, hi - step])
    below = special.ndtr((ends[:, None] - mu_hat) / np.sqrt(v)) @ omega
    assert below[0] <= 1e-7 and below[1] >= 1.0 - 1e-7
    assert below[2] > 1e-7 and below[3] < 1.0 - 1e-7


def test_effect_window_end_is_the_fewest_steps():
    tests = []

    def done(x):
        tests.append(x)
        return x >= 1000.5

    assert metaanalysis._window_end(done, 0.0, 1.0) == 1001.0
    assert len(tests) <= 2 * math.log2(1001) + 2
    with pytest.raises(GridError, match="effect posterior mass does not decay"):
        metaanalysis._window_end(lambda x: False, 0.0, -1.0)


def _counted(done, limit=5000):
    """``done``, failing the test after ``limit`` calls instead of looping on."""
    calls = []

    def counted(x):
        calls.append(x)
        if len(calls) > limit:
            pytest.fail(f"the effect window tested {limit} ends without stopping")
        return done(x)

    return counted


def test_effect_window_end_stops_where_no_float_lies_between():
    """A start that dwarfs the step: past 2^53 steps the bracket's ends are
    adjacent floats more than 1 apart, whose floored midpoint is one of
    them; the bisection stops there, at the first end that is done."""
    target = 1e40 + 1e30
    assert metaanalysis._window_end(_counted(lambda x: x >= target), 1e40, 1.0) == target


def test_bayes_ma_far_from_zero_keeps_its_effect_window_finite(monkeypatch):
    """Two precise studies at 1e40 under half-Cauchy(1): the effect window
    starts 1e40 from 0 with steps of 2 sd, so its bisection reaches adjacent
    floats far apart; it stops there, and the effect summaries are 1e40 to
    within a float step (the interval's ends may be a step out of order)."""
    window_end = metaanalysis._window_end
    monkeypatch.setattr(
        metaanalysis, "_window_end", lambda done, start, step: window_end(_counted(done), start, step)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bayes_ma(SingleMeta(y=(1e40, 1e40 + 1.0), sigma=(0.1, 0.2)), HalfCauchy(1.0))
    for x in (res.mu_median, *res.mu_interval, *res.mu_density.grid[[0, -1]]):
        assert x == pytest.approx(1e40, rel=1e-15)
    assert 0.0 < res.tau_interval[0] < res.tau_median < res.tau_interval[1] < math.inf


@pytest.mark.parametrize("y", [1e40, 1e17, 1e20, 0.3])
def test_bayes_ma_warns_when_the_floats_cannot_resolve_the_effect(y):
    """Two precise studies at 1e17, 1e20 or 1e40 under half-Cauchy(1): the
    floats at the effect are further apart than the effect grid's step, so
    the grid repeats points, and the result says so, naming the effect; at
    0.3 nothing is wrong and the result has no warning."""
    res = bayes_ma(SingleMeta(y=(y, y), sigma=(0.1, 0.2)), HalfCauchy(1.0))
    grid = res.mu_density.grid
    if y == 0.3:
        assert np.all(np.diff(grid) > 0.0) and res.warnings == ()
    else:
        assert not np.all(np.diff(grid) > 0.0)
        (warning,) = res.warnings
        assert warning.startswith(f"effect grid repeats points: at effect {y:g} floats are ")
        assert warning.endswith("so the effect summaries are rounding noise")


def test_tau_grids_try_each_extension_count_then_fail():
    """The one extension loop's grids: ``_tau_grid`` with 0, 1, ...,
    ``_MAX_EXTENSIONS`` doublings, then the GridError that ``analyze`` and
    the sampler both report."""
    grids = metaanalysis._tau_grids(0.37)
    for extensions in range(metaanalysis._MAX_EXTENSIONS + 1):
        assert np.array_equal(next(grids), metaanalysis._tau_grid(0.37, extensions))
    with pytest.raises(GridError, match="tau posterior mass does not decay: grid extended 60 times"):
        next(grids)


@pytest.mark.parametrize("y,sigma", [((0.1, 0.2), (0.1, 0.2)), ((0.0, 1.0), (0.1, 0.1))])
def test_bayes_ma_stops_at_the_first_extension_that_passes(y, sigma, monkeypatch):
    """``bayes_ma`` extends its tau grid by the fewest doublings that pass
    the tail test: allowed one fewer, it fails saying the tau posterior mass
    does not decay."""
    sm, prior = SingleMeta(y=y, sigma=sigma), HalfCauchy(1.0)
    nodes = bayes_ma(sm, prior).tau_density.grid.size
    extensions, rest = divmod(nodes - metaanalysis._TAU_NODES, metaanalysis._TAU_NODES // 10)
    assert rest == 0 and extensions >= 1, nodes
    monkeypatch.setattr(metaanalysis, "_MAX_EXTENSIONS", extensions - 1)
    with pytest.raises(GridError, match="tau posterior mass does not decay"):
        bayes_ma(sm, prior)


def test_reduced_mixture_moments_survive_subnormal_weights():
    # a bin of two equal conditionals with subnormal weights: sum(omega * v)
    # underflows to 0, the in-bin shares keep the variance exact
    omega = np.array([5e-324, 5e-324, 0.0, 0.5, 0.5])
    mu_hat = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    v = np.full(5, 0.01)
    weight, mean, sd = _reduced_mixture(omega, mu_hat, v)
    assert weight.tolist() == [1e-323, 1.0]
    assert mean.tolist() == [0.0, 1.0]
    assert sd.tolist() == [0.1, 0.1]


def test_non_finite_mu_density_is_a_grid_error(monkeypatch):
    nan = np.array([math.nan])
    monkeypatch.setattr(metaanalysis, "_reduced_mixture", lambda *a: (nan, nan, nan))
    with pytest.raises(GridError, match="effect posterior density"):
        bayes_ma(SingleMeta(y=(0.1, 0.3), sigma=(0.2, 0.3)), HalfNormal(0.5))


def _brentq_quantile(omega, mu_hat, sd, p):
    """The p quantile of the full effect mixture by scalar root search."""

    def excess(x):
        return float(np.sum(omega * special.ndtr((x - mu_hat) / sd))) - p

    lo, hi = float(np.min(mu_hat - 10.0 * sd)), float(np.max(mu_hat + 10.0 * sd))
    return optimize.brentq(excess, lo, hi, xtol=1e-12)


def _dense_reference(sm, prior):
    """tau and effect medians and the effect sd by a dense-grid quadrature
    written apart from the package: 0 and 100 000 geometric tau nodes over
    18 decades of the data's and the prior's scale, trapezoid weights, and
    every node's conditional normal summed whole, its median found by
    brentq. Four times the nodes move no median by 1e-7 relative."""
    y, s2 = np.asarray(sm.y), np.asarray(sm.sigma) ** 2
    scale = max(float(np.sqrt(s2.max())), float(prior.quantile(0.5)))
    tau = np.concatenate(([0.0], np.geomspace(1e-10 * scale, 1e8 * scale, 100_000)))
    w = 1.0 / (s2 + tau[:, None] ** 2)
    total_w = w.sum(axis=1)
    mu_hat = (w @ y) / total_w
    q = (w * (y - mu_hat[:, None]) ** 2).sum(axis=1)
    log_post = prior.log_density(tau) + 0.5 * (np.log(w).sum(axis=1) - np.log(total_w) - q)
    g = np.exp(log_post - log_post.max())
    cdf = integrate.cumulative_trapezoid(g, tau, initial=0.0)
    tau_median = float(np.interp(0.5, cdf / cdf[-1], tau))
    dx = np.diff(tau)
    omega = g * (np.append(dx, 0.0) + np.insert(dx, 0, 0.0)) / 2.0
    omega /= omega.sum()
    mean = float(omega @ mu_hat)
    sd = math.sqrt(float(omega @ (1.0 / total_w + (mu_hat - mean) ** 2)))
    return tau_median, _brentq_quantile(omega, mu_hat, np.sqrt(1.0 / total_w), 0.5), sd


@pytest.mark.parametrize(
    "sm, prior",
    [
        (SingleMeta(y=(0.0, 1e-6), sigma=(1e-5, 1e-5)), HalfCauchy(1.0)),
        (SingleMeta(y=(0.0, 1e-6), sigma=(1e-5, 1e-5)), HalfNormal(0.5)),
        (capped_meta(), Lomax(9.9, 1.5)),
        (SingleMeta(y=(0.3,), sigma=(0.2,)), HalfCauchy(0.1)),
        (SingleMeta(y=(-5.0, 0.0, 5.0), sigma=(0.1, 0.1, 0.1)), HalfNormal(1e-4)),
    ],
    ids=["half-cauchy-precise", "half-normal-precise", "capped", "one-study", "narrow-prior"],
)
def test_bayes_ma_medians_match_dense_quadrature(sm, prior):
    """The tau median within 1e-3 relative of a dense-grid reference, and the
    effect median within 1e-3 relative or 1e-3 posterior sd. A grid anchored
    at the prior's 0.9999 quantile alone puts its first node past the tau of
    precise studies under a heavy-tailed prior (61% low on the first case);
    one anchored on the data alone is too coarse under a prior narrower than
    the data's spread (2.5% high on the last)."""
    tau_median, mu_median, mu_sd = _dense_reference(sm, prior)
    res = bayes_ma(sm, prior)
    assert res.tau_median == pytest.approx(tau_median, rel=1e-3)
    assert res.mu_median == pytest.approx(mu_median, rel=1e-3, abs=1e-3 * mu_sd)


def _quantile_cases():
    rng = np.random.default_rng(31)
    priors = TABLE_PRIORS + [HalfCauchy(1.0)]
    for n in range(18):
        k = 1 if n % 6 == 0 else int(rng.integers(2, 31))
        se = rng.uniform(5e-5, 2e-4, k) if n % 3 == 1 else rng.uniform(0.05, 1.0, k)
        y = rng.normal(0.3, np.sqrt(se**2 + 0.04))
        yield SingleMeta(y=tuple(y), sigma=tuple(se)), priors[n % len(priors)], (
            Normal(0.0, 2.0) if n % 2 else None
        )
    yield capped_meta(), Lomax(9.9, 1.5), None
    yield tiny_se_meta(), HalfCauchy(0.1), Normal(0.0, 2.0)


def test_newton_quantiles_match_brentq_on_the_full_mixture():
    for sm, prior, mu_prior in _quantile_cases():
        res = bayes_ma(sm, prior, mu_prior)
        omega, mu_hat, v = _conditionals(sm, res, mu_prior)
        lo, hi = res.mu_interval
        for p, q in ((0.025, lo), (0.5, res.mu_median), (0.975, hi)):
            assert abs(q - _brentq_quantile(omega, mu_hat, np.sqrt(v), p)) <= 1e-12
        assert lo <= res.mu_median <= hi


@pytest.mark.parametrize(
    "y,sigma",
    [
        # a cdf too flat for its rounding: Newton steps are noise, bisection
        # takes over (about 52 passes)
        ((1e69, -1e69), (1e70, 1e70)),
        # an effect grid narrower than its rounding: the start is NaN
        ((1e60, 1e60 + 1.0), (0.1, 0.2)),
        # a conditional spike at tau = 0
        ((0.1, 0.2), (1e-70, 1e-70)),
    ],
)
def test_newton_quantiles_converge_at_extreme_scales(y, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bayes_ma(SingleMeta(y=y, sigma=sigma), HalfNormal(0.5))
    lo, hi = res.mu_interval
    assert np.all(np.isfinite([lo, res.mu_median, hi]))
    assert lo <= res.mu_median <= hi


def test_unconverged_newton_quantiles_are_a_grid_error(monkeypatch):
    monkeypatch.setattr(metaanalysis, "_NEWTON_PASSES", 1)
    with pytest.raises(GridError, match="effect quantiles did not converge in 1 Newton pass"):
        bayes_ma(SingleMeta(y=(0.1, 0.3), sigma=(0.2, 0.3)), HalfNormal(0.5))


def test_bayes_ma_tau_outputs_equal_tau_marginal():
    for sm, prior, mu_prior in _quantile_cases():
        res = bayes_ma(sm, prior, mu_prior)
        td = tau_marginal(sm, prior, mu_prior)
        assert np.array_equal(res.tau_density.grid, td.grid)
        assert np.array_equal(res.tau_density.density, td.density)
        a = (1.0 - 0.95) / 2.0
        median, lo, hi = td.quantile([0.5, a, 1.0 - a])
        assert (res.tau_median, res.tau_interval) == (median, (lo, hi))


def test_capped_mu_density_needs_no_grid_sized_temporaries():
    sm = capped_meta()
    bayes_ma(sm, Lomax(9.9, 1.5))  # warm imports and caches
    tracemalloc.start()
    try:
        res = bayes_ma(sm, Lomax(9.9, 1.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.mu_density.grid.size == 40001
    assert peak < 16 * 2**20


TABLE_PRIORS = [
    HalfNormal(0.22),
    HalfStudentT(8.2, 0.20),
    Lomax(9.9, 1.5),
    LogNormal(-2.6, 1.7),
    HalfCauchy(0.10),
]


def test_stochastically_larger_prior_never_shortens_interval():
    # The published prior set is not mutually stochastically ordered, so
    # scaled-up variants provide the dominating partners.
    priors = TABLE_PRIORS + [
        HalfNormal(0.5),
        HalfStudentT(8.2, 0.4),
        HalfCauchy(0.2),
        Lomax(9.9, 3.0),
    ]
    grid = np.geomspace(1e-4, 50.0, 400)
    sm = SingleMeta(y=(0.1, 0.6, 0.3), sigma=(0.25, 0.35, 0.3))
    widths = {}
    for prior in priors:
        res = bayes_ma(sm, prior)
        widths[prior] = res.mu_interval[1] - res.mu_interval[0]
    checked = 0
    for a in priors:
        for b in priors:
            if a is b:
                continue
            if np.all(a.cdf(grid) >= b.cdf(grid) - 1e-12):  # b stochastically larger
                checked += 1
                assert widths[b] >= widths[a] - 1e-9
    assert checked >= 4  # the augmented set contains ordered pairs


def test_informative_effect_prior_pulls_and_tightens():
    sm = SingleMeta(y=(1.0,), sigma=(0.5,))
    flat = bayes_ma(sm, HalfNormal(0.2))
    informative = bayes_ma(sm, HalfNormal(0.2), mu_prior=Normal(0.0, 0.1))
    assert informative.mu_mean < flat.mu_mean
    assert informative.mu_sd < flat.mu_sd
    # a very diffuse proper prior is indistinguishable from the flat default
    diffuse = bayes_ma(sm, HalfNormal(0.2), mu_prior=Normal(0.0, 1e6))
    assert diffuse.mu_mean == pytest.approx(flat.mu_mean, abs=1e-5)
    assert diffuse.mu_sd == pytest.approx(flat.mu_sd, rel=1e-5)


def test_invalid_effect_prior_type():
    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.5))
    with pytest.raises(TypeError, match="Normal"):
        bayes_ma(sm, HalfNormal(0.2), mu_prior=HalfNormal(1.0))


# -- DL and PM estimates -----------------------------------------------------------


def test_dl_identical_studies():
    assert dl_estimate(SingleMeta(y=(0.0, 0.0), sigma=(1.0, 1.0))) == DlResult(0.0, 0.0)


def test_dl_hand_evaluated_example():
    res = dl_estimate(SingleMeta(y=(0.0, 2.0), sigma=(1.0, 1.0)))
    assert res.q == pytest.approx(2.0)
    assert res.tau == pytest.approx(1.0)


def test_dl_truncates_at_zero():
    res = dl_estimate(SingleMeta(y=(0.0, 0.5), sigma=(1.0, 1.0)))
    assert res.tau == 0.0
    assert res.q == pytest.approx(0.125)


def test_pm_hand_evaluated_example():
    assert pm_estimate(SingleMeta(y=(0.0, 2.0), sigma=(1.0, 1.0))) == pytest.approx(1.0, abs=1e-7)


def test_pm_identical_studies():
    assert pm_estimate(SingleMeta(y=(0.3, 0.3), sigma=(0.5, 1.0))) == 0.0


def test_pm_equals_dl_for_equal_sigmas():
    rng = np.random.default_rng(9)
    # sigma = 1e-3: the root lies far above the largest standard error
    for sigma in (0.7, 1e-3):
        for _ in range(5):
            y = tuple(rng.normal(0.0, 2.0, 6))
            sm = SingleMeta(y=y, sigma=(sigma,) * 6)
            dl = dl_estimate(sm).tau
            if dl == 0.0:
                continue
            assert pm_estimate(sm) == pytest.approx(dl, abs=1e-6)


def test_pm_undefined_where_q_never_falls_to_its_degrees_of_freedom():
    # (y_i - mu)^2 overflows, so Q stays infinite until the weights vanish.
    # SingleMeta rejects such estimates, so the guard is reached only by a
    # record built around that check.
    sm = object.__new__(SingleMeta)
    object.__setattr__(sm, "y", (0.0, 1e200))
    object.__setattr__(sm, "sigma", (1.0, 1.0))
    with np.errstate(over="ignore"), pytest.raises(UndefinedEstimatorError, match="every finite tau"):
        pm_estimate(sm)


@pytest.mark.parametrize("func", [dl_estimate, pm_estimate])
def test_estimators_need_two_studies(func):
    with pytest.raises(UndefinedEstimatorError):
        func(SingleMeta(y=(0.1,), sigma=(0.5,)))


@pytest.mark.parametrize("sigma", [(1e-10, 1.0), (1e-9, 1.0, 1.0)])
def test_dl_degenerate_weights_fail_loudly(sigma):
    # one weight swamps the rest: sum(w) - sum(w^2)/sum(w) rounds to zero
    sm = SingleMeta(y=(0.1, 0.3, -0.2)[: len(sigma)], sigma=sigma)
    with pytest.raises(UndefinedEstimatorError, match="denominator"):
        dl_estimate(sm)


def test_tau_estimate_collection_names_degenerate_analysis():
    c = parse_collection(
        "analysis_id,study_id,estimate,std_err\n"
        "fine,s1,0.1,0.3\nfine,s2,0.4,0.2\n"
        "tight,s1,0.1,1e-10\ntight,s2,0.3,1.0\n"
    )
    with pytest.raises(UndefinedEstimatorError, match="analysis tight"):
        tau_estimate_collection(c, "DL")
    assert [aid for aid, _ in tau_estimate_collection(c, "PM").estimates] == ["fine", "tight"]


@pytest.mark.parametrize("c", [0.5, 2.7, 1e-60])
def test_scale_equivariance(c):
    rng = np.random.default_rng(11)
    sm = random_meta(rng, k=6, spread=1.5)
    scaled = SingleMeta(
        y=tuple(c * v for v in sm.y), sigma=tuple(c * s for s in sm.sigma)
    )
    # compared in the units of the unscaled data, where approx's absolute
    # tolerance cannot swallow a tiny scale
    assert dl_estimate(scaled).tau / c == pytest.approx(dl_estimate(sm).tau, rel=1e-9)
    assert pm_estimate(scaled) / c == pytest.approx(pm_estimate(sm), rel=1e-9)


# -- confidence interval suite ------------------------------------------------------


def test_ci_suite_hand_evaluated_example():
    sm = SingleMeta(y=(0.0, 2.0), sigma=(1.0, 1.0))
    normal, hksj, mkh = ci_suite(sm, 1.0)
    assert normal.estimate == pytest.approx(1.0)
    assert normal.lo == pytest.approx(1.0 - Z_975, abs=1e-9)
    assert normal.hi == pytest.approx(1.0 + Z_975, abs=1e-9)
    assert hksj.lo == pytest.approx(1.0 - T_1_975, abs=1e-9)
    assert hksj.hi == pytest.approx(1.0 + T_1_975, abs=1e-9)
    assert mkh.lo == hksj.lo and mkh.hi == hksj.hi


def test_ci_suite_equal_estimates_pathology():
    sm = SingleMeta(y=(0.3, 0.3, 0.3), sigma=(0.5, 0.4, 0.6))
    normal, hksj, mkh = ci_suite(sm, 0.0)
    assert hksj.hi - hksj.lo == pytest.approx(0.0, abs=1e-12)
    t = 4.302652729911275  # t_{2, 0.975}
    assert (mkh.hi - mkh.lo) / (normal.hi - normal.lo) == pytest.approx(t / Z_975)


def test_mkh_at_least_as_wide_as_normal():
    rng = np.random.default_rng(13)
    for _ in range(50):
        sm = random_meta(rng, k=int(rng.integers(2, 8)))
        tau = float(rng.uniform(0.0, 1.0))
        normal, _, mkh = ci_suite(sm, tau)
        assert mkh.hi - mkh.lo >= normal.hi - normal.lo - 1e-12


def test_ci_suite_translation_equivariance():
    rng = np.random.default_rng(15)
    sm = random_meta(rng, k=4)
    shifted = SingleMeta(y=tuple(v + 0.73 for v in sm.y), sigma=sm.sigma)
    for a, b in zip(ci_suite(sm, 0.2), ci_suite(shifted, 0.2)):
        assert b.estimate == pytest.approx(a.estimate + 0.73, abs=1e-9)
        assert b.lo == pytest.approx(a.lo + 0.73, abs=1e-9)
        assert b.hi == pytest.approx(a.hi + 0.73, abs=1e-9)


def test_bayes_ma_translation_equivariance():
    # a large effect with tiny standard errors: the uncentred variance
    # sum(omega * (v + mu_hat^2)) - mu_mean^2 loses every digit here
    rng = np.random.default_rng(1)
    sm = SingleMeta(y=tuple(rng.normal(0.0, 1e-3, 4)), sigma=(1e-3,) * 4)
    shifted = SingleMeta(y=tuple(v + 1e5 for v in sm.y), sigma=sm.sigma)
    a = bayes_ma(sm, HalfNormal(0.5))
    b = bayes_ma(shifted, HalfNormal(0.5))
    assert b.mu_mean == pytest.approx(a.mu_mean + 1e5, abs=1e-8)
    assert b.mu_median == pytest.approx(a.mu_median + 1e5, abs=1e-8)
    assert b.mu_sd == pytest.approx(a.mu_sd, rel=1e-6)


def test_ci_suite_validation():
    sm = SingleMeta(y=(0.1, 0.2), sigma=(0.5, 0.5))
    with pytest.raises(UndefinedEstimatorError):
        ci_suite(SingleMeta(y=(0.1,), sigma=(0.5,)), 0.1)
    with pytest.raises(ValueError, match="tau_hat"):
        ci_suite(sm, -0.1)


def test_k2_equal_estimates_reproduce_common_effect():
    sm = SingleMeta(y=(0.21, 0.21), sigma=(0.3, 0.5))
    dl = dl_estimate(sm)
    assert dl.tau == 0.0
    normal, _, _ = ci_suite(sm, dl.tau)
    w = 1.0 / np.asarray(sm.sigma) ** 2
    mu = float(np.sum(w * sm.y) / w.sum())
    assert normal.estimate == pytest.approx(mu)
    assert normal.hi - normal.lo == pytest.approx(2 * Z_975 / math.sqrt(w.sum()))


# -- collection-level estimates ------------------------------------------------------


def corpus_csv(analyses):
    rows = ["analysis_id,study_id,estimate,std_err"]
    for aid, studies in analyses:
        rows += [f"{aid},s{i},{y},{s}" for i, (y, s) in enumerate(studies)]
    return "\n".join(rows) + "\n"


def test_identical_y_corpus_is_all_zero():
    c = parse_collection(
        corpus_csv(
            [
                ("a", [(0.2, 0.5), (0.2, 0.4)]),
                ("b", [(1.0, 0.3), (1.0, 0.3), (1.0, 0.2)]),
            ]
        )
    )
    est = tau_estimate_collection(c, "DL")
    assert est.summary()["fraction_zero"] == 1.0
    assert est.summary()["mean"] == 0.0
    assert est.summary()["median"] == 0.0
    assert est.skipped == ()


def test_single_study_analyses_are_skipped_with_warning(tmp_path, capsys):
    text = corpus_csv(
        [
            ("a", [(0.0, 1.0), (2.0, 1.0)]),
            ("solo", [(0.5, 0.4)]),
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = tau_estimate_collection(parse_collection(text), "DL")
    assert est.skipped == ("solo",)
    assert dict(est.estimates)["a"] == pytest.approx(1.0)
    assert est.summary()["n"] == 1
    # the command's document carries the warning, on every run of one process
    path = tmp_path / "corpus.csv"
    path.write_text(text)
    warning = "skipped 1 single-study analyses (no heterogeneity information): solo"
    for run in ("first", "second"):
        assert cli.main(["tau-estimates", str(path), "--out", str(tmp_path / run)]) == 0
        doc = json.loads((tmp_path / run / "summary.json").read_text())
        assert doc["skipped"] == ["solo"]
        assert doc["warnings"] == [warning]
        assert f"warning: {warning}" in capsys.readouterr().out.splitlines()


def test_pm_collection_matches_per_analysis_estimates():
    c = parse_collection(
        corpus_csv(
            [
                ("a", [(0.0, 1.0), (2.0, 1.0)]),
                ("b", [(0.1, 0.4), (0.3, 0.5), (0.9, 0.3)]),
            ]
        )
    )
    est = tau_estimate_collection(c, "pm")
    assert est.method == "PM"
    for aid, tau in est.estimates:
        sm = single_meta(c, aid)
        assert tau == pytest.approx(pm_estimate(sm))


def test_tau_estimate_collection_validation():
    c = parse_collection(corpus_csv([("solo", [(0.5, 0.4)])]))
    with pytest.raises(ValueError, match="method"):
        tau_estimate_collection(c, "REML")
    with pytest.raises(ValueError, match="2 studies"):
        tau_estimate_collection(c, "DL")


# -- forest rows -----------------------------------------------------------------


def test_forest_rows_layout():
    sm = SingleMeta(y=(0.1, 0.5), sigma=(0.3, 0.4))
    res = bayes_ma(sm, HalfStudentT(8.2, 0.20))
    rows = forest_rows(sm, res, labels=["alpha", "beta"])
    assert [r["label"] for r in rows[:2]] == ["alpha", "beta"]
    assert rows[0]["estimate"] == 0.1
    assert rows[0]["lo"] == pytest.approx(0.1 - Z_975 * 0.3)
    weights = [float(r["weight_or_type"]) for r in rows[:2]]
    assert sum(weights) == pytest.approx(1.0)
    bayes_row = rows[2]
    assert bayes_row["label"].startswith("bayes [half-t(8.2,0.2)]")
    assert bayes_row["weight_or_type"] == "posterior"
    comparator_labels = [r["label"] for r in rows[3:]]
    assert comparator_labels == ["normal", "hksj", "mkh", "common-effect"]
    assert all(r["weight_or_type"] == "comparator" for r in rows[3:])


def test_forest_rows_label_count_validation():
    sm = SingleMeta(y=(0.1, 0.5), sigma=(0.3, 0.4))
    res = bayes_ma(sm, HalfNormal(0.22))
    with pytest.raises(ValueError, match="labels"):
        forest_rows(sm, res, labels=["only-one"])


def test_labeled_interval_ordering_enforced():
    with pytest.raises(ValueError, match="lo"):
        LabeledInterval("x", 0.0, 1.0, -1.0)
