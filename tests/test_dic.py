import math

import numpy as np
import pytest

from hetprior.data import MetaAnalysisCollection, StudyRecord
from hetprior.dic import (
    ComparisonRow,
    compare_models,
    comparison_to_dict,
    compute_dic,
    deviance,
    format_comparison_table,
    mixture_dic,
)
from hetprior.sampler import (
    HET_FAMILIES,
    McmcConfig,
    ModelSpec,
    PosteriorSamples,
    _predictive_summary,
    posterior_mixture,
    predictive_draws,
    run_hierarchical,
    samples_from_csv,
    samples_from_npy,
    samples_to_csv,
    samples_to_npy,
)


def one_study_collection(y=0.0, se=1.0):
    return MetaAnalysisCollection((("A", (StudyRecord("A", "S1", y, se, 0),)),))


def test_deviance_single_study_analytic():
    c = one_study_collection()
    assert deviance(c, [0.0], [0.0]) == pytest.approx(math.log(2 * math.pi), abs=1e-12)
    # tau^2 = 3 -> total variance 4
    assert deviance(c, [0.0], [math.sqrt(3.0)]) == pytest.approx(math.log(2 * math.pi * 4), abs=1e-12)


def test_deviance_permutation_invariant():
    recs = (
        StudyRecord("A", "S1", 0.3, 0.2, 0),
        StudyRecord("A", "S2", -0.1, 0.4, 1),
        StudyRecord("A", "S3", 0.7, 0.3, 2),
    )
    c1 = MetaAnalysisCollection((("A", recs),))
    c2 = MetaAnalysisCollection((("A", recs[::-1]),))
    assert deviance(c1, [0.1], [0.2]) == pytest.approx(deviance(c2, [0.1], [0.2]), rel=1e-15)


def test_deviance_validates_inputs():
    c = one_study_collection()
    with pytest.raises(ValueError):
        deviance(c, [0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        deviance(c, [0.0], [-0.5])


def test_deviance_rejects_non_finite_inputs_by_name():
    c = one_study_collection()
    with pytest.raises(ValueError, match="analysis 'A': mu nan"):
        deviance(c, [math.nan], [0.1])
    with pytest.raises(ValueError, match="analysis 'A': .*tau inf"):
        deviance(c, [0.0], [math.inf])
    two = MetaAnalysisCollection(
        (("A", (StudyRecord("A", "S1", 0.1, 0.2, 0),)), ("B", (StudyRecord("B", "S1", 0.3, 0.2, 1),)))
    )
    with pytest.raises(ValueError, match="analysis 'B'"):
        deviance(two, [0.0, -math.inf], [0.1, 0.2])


def test_deviance_unimodal_toward_moment_fit():
    # one analysis with visible spread: on a tau grid the deviance has a
    # single interior minimum, and moving tau toward it decreases deviance
    y = np.array([-0.8, 0.0, 0.9, 1.4])
    se = np.full(4, 0.3)
    recs = tuple(StudyRecord("A", f"S{i}", float(y[i]), 0.3, i) for i in range(4))
    c = MetaAnalysisCollection((("A", recs),))
    mu = [float(np.mean(y))]
    grid = np.linspace(0.0, 3.0, 301)
    dev = np.array([deviance(c, mu, [t]) for t in grid])
    k = int(np.argmin(dev))
    assert 0 < k < len(grid) - 1
    assert np.all(np.diff(dev[: k + 1]) < 0)
    assert np.all(np.diff(dev[k:]) > 0)


def _constant_samples(c, mu0, tau0, dev0):
    n = c.n_analyses
    shape = (2, 50)
    row = np.concatenate([[0.2], mu0, tau0, [0.1, dev0]])
    return PosteriorSamples(
        family="half-normal",
        table=np.tile(row, (*shape, 1)),
        analysis_ids=tuple(c.analysis_ids),
    )


def test_degenerate_samples_have_zero_pd():
    c = one_study_collection(y=0.5, se=0.7)
    mu0, tau0 = [0.2], [0.1]
    dev0 = deviance(c, mu0, tau0)
    s = _constant_samples(c, mu0, tau0, dev0)
    r = compute_dic(s, c)
    assert r.p_d == pytest.approx(0.0, abs=1e-12)
    assert r.dic == pytest.approx(r.plug_in_deviance, abs=1e-12)


def test_dic_identities_on_real_run(quick_fit):
    s, c = quick_fit
    r = compute_dic(s, c)
    assert r.p_d == pytest.approx(r.mean_deviance - r.plug_in_deviance, abs=1e-9)
    assert r.dic == pytest.approx(r.mean_deviance + r.p_d, abs=1e-9)
    # effective parameter count should be positive and below the raw
    # parameter count (2N + 1)
    assert 0.0 < r.p_d < 2 * c.n_analyses + 1


def test_appending_plug_in_iteration_cannot_increase_pd(quick_fit):
    s, c = quick_fit
    base = compute_dic(s, c)
    mu_mean = s.mu.mean(axis=(0, 1))
    tau_mean = s.tau.mean(axis=(0, 1))
    dev_plug = deviance(c, mu_mean, tau_mean)
    plug_row = np.concatenate([[0.2], mu_mean, tau_mean, [0.1, dev_plug]])
    extended = PosteriorSamples(
        family=s.family,
        table=np.concatenate([s.table, np.tile(plug_row, (s.n_chains, 1, 1))], axis=1),
        analysis_ids=s.analysis_ids,
    )
    assert compute_dic(extended, c).p_d <= base.p_d + 1e-12


@pytest.fixture(scope="module")
def quick_fit():
    rng = np.random.default_rng(14)
    analyses = []
    for j in range(8):
        tau = abs(rng.normal(0.0, 0.25))
        mu = rng.normal(0.0, 0.5)
        recs = tuple(
            StudyRecord(f"A{j}", f"S{i}", float(rng.normal(rng.normal(mu, tau), 0.2)), 0.2, j * 5 + i)
            for i in range(5)
        )
        analyses.append((f"A{j}", recs))
    c = MetaAnalysisCollection(tuple(analyses))
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=300, iterations=800, seed=31))
    return s, c


def test_compute_dic_from_csv_mapping_matches(quick_fit):
    s, c = quick_fit
    direct = compute_dic(s, c)
    via_csv = compute_dic(samples_from_csv(samples_to_csv(s), "half-normal"), c)
    assert via_csv == direct


def test_compute_dic_from_the_draw_file_matches(quick_fit):
    s, c = quick_fit
    back = samples_from_npy(samples_to_npy(s), "half-normal", s.parameter_names())
    assert compute_dic(back, c) == compute_dic(s, c)


def test_compute_dic_missing_deviance_is_input_error(quick_fit):
    s, _ = quick_fit
    text = samples_to_csv(s).replace(",deviance\n", "\n", 1)
    with pytest.raises(ValueError, match="missing column 'deviance'"):
        samples_from_csv(text, "half-normal")


def test_compare_models_ranks_truth_first():
    # taus from a half-Cauchy(0.1): one analysis has tau near 2.4, which a
    # half-normal can only cover by giving up on the seven small ones. The
    # exact marginal likelihood of these data favours the half-Cauchy over
    # the half-normal by about 4 nats, and the DIC ranks it first by 5-7 at
    # every seed tried. The converse case, half-normal data, is not asserted:
    # the conditional DIC leans toward the half-Cauchy (see the dic module
    # docstring) and ranks it first on such corpora at most seeds.
    rng = np.random.default_rng(14)
    analyses = []
    for j in range(8):
        tau = abs(0.1 * rng.standard_cauchy())
        mu = rng.normal(0.0, 0.5)
        recs = tuple(
            StudyRecord(f"A{j}", f"S{i}", float(rng.normal(rng.normal(mu, tau), 0.2)), 0.2, j * 5 + i)
            for i in range(5)
        )
        analyses.append((f"A{j}", recs))
    c = MetaAnalysisCollection(tuple(analyses))
    cfg = McmcConfig(chains=2, burn_in=300, iterations=800, seed=31)
    rows = compare_models(c, ["half-normal", "half-cauchy"], cfg=cfg)
    assert rows[0].family == "half-cauchy"
    assert rows[0].dic.dic <= rows[1].dic.dic


def test_compare_models_reproducible(quick_fit):
    _, c = quick_fit
    cfg = McmcConfig(chains=2, burn_in=100, iterations=300, seed=5)
    a = compare_models(c, ["half-normal", "exp"], cfg=cfg)
    b = compare_models(c, ["half-normal", "exp"], cfg=cfg)
    assert comparison_to_dict(a) == comparison_to_dict(b)


def test_compare_models_half_cauchy_moments_undefined(quick_fit):
    _, c = quick_fit
    cfg = McmcConfig(chains=2, burn_in=100, iterations=300, seed=5)
    rows = compare_models(c, ["half-normal", "half-cauchy"], cfg=cfg)
    hc = next(r for r in rows if r.family == "half-cauchy")
    assert hc.predictive["mean"] is None
    assert hc.predictive["sd"] is None
    assert hc.predictive["q95"] is not None


def test_compare_models_error_rows_do_not_abort(quick_fit):
    _, c = quick_fit
    cfg = McmcConfig(chains=2, burn_in=100, iterations=300, seed=5)
    rows = compare_models(c, ["half-normal", "bogus-family"], cfg=cfg)
    ok = [r for r in rows if r.error is None]
    failed = [r for r in rows if r.error is not None]
    assert len(ok) == 1 and ok[0].family == "half-normal"
    assert len(failed) == 1 and failed[0].family == "bogus-family"
    # failed rows sort last and appear in the text table
    assert rows[-1].family == "bogus-family"
    text = format_comparison_table(rows)
    assert "failed" in text


def test_compare_models_lets_programming_errors_propagate(quick_fit, monkeypatch):
    # an error row is for a model that fails, not for a bug in the code
    _, c = quick_fit

    def broken(*args):
        raise TypeError("bug in the exp density")

    monkeypatch.setitem(HET_FAMILIES, "exp", HET_FAMILIES["exp"]._replace(cdf=broken))
    cfg = McmcConfig(chains=2, burn_in=10, iterations=20, seed=5)
    with pytest.raises(TypeError, match="bug in the exp density"):
        compare_models(c, ["half-normal", "exp"], cfg=cfg)


def test_compare_models_requires_two_families(quick_fit):
    _, c = quick_fit
    with pytest.raises(ValueError):
        compare_models(c, ["half-normal"])


def test_format_comparison_table_layout(quick_fit):
    _, c = quick_fit
    cfg = McmcConfig(chains=2, burn_in=100, iterations=300, seed=5)
    rows = compare_models(c, ["half-normal", "half-cauchy"], cfg=cfg)
    text = format_comparison_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["model", "DIC", "mean", "sd", "50%", "95%", "99%"]
    assert len(lines) == 3
    # undefined cells render as a dash
    hc_line = next(l for l in lines if l.startswith("half-cauchy"))
    assert " - " in hc_line or hc_line.rstrip().endswith("-") or "  -" in hc_line


# -- DIC from the tables ---------------------------------------------------------


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_mixture_dic_agrees_with_large_draw_runs(quick_fit, family):
    """The DIC and p_D of the tables lie within three seed-to-seed sds of
    the mean of four runs of 4 x 5000 draws from the same tables."""
    _, c = quick_fit
    m = ModelSpec(het_family=family)
    exact = mixture_dic(posterior_mixture(c, m), c)
    runs = [
        compute_dic(run_hierarchical(c, m, McmcConfig(chains=4, iterations=5000, seed=seed)), c)
        for seed in range(1, 5)
    ]
    for field in ("dic", "p_d", "mean_deviance", "plug_in_deviance"):
        drawn, value = np.array([getattr(r, field) for r in runs]), getattr(exact, field)
        assert abs(value - drawn.mean()) <= 3.0 * drawn.std(ddof=1), (field, value, drawn)


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_posterior_mixture_masses_sum_to_one_per_analysis(quick_fit, family):
    _, c = quick_fit
    mix = posterior_mixture(c, ModelSpec(het_family=family))
    assert mix.mass.shape == (c.n_analyses, mix.nodes.size - 1)
    assert np.all(mix.mass >= 0.0)
    np.testing.assert_allclose(mix.mass.sum(axis=1), 1.0, rtol=1e-5)
    assert np.all((mix.tau >= 0.0) & (mix.tau <= mix.nodes[-1]))


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_predictive_draws_are_run_hierarchical_s_bit_for_bit(quick_fit, family):
    _, c = quick_fit
    m, cfg = ModelSpec(het_family=family), McmcConfig(chains=3, iterations=200, seed=8)
    draws = predictive_draws(posterior_mixture(c, m), cfg)
    assert draws.tobytes() == run_hierarchical(c, m, cfg).predictive.tobytes()


def test_compare_models_dic_is_seed_free_and_predictive_is_the_sampler_s(quick_fit):
    _, c = quick_fit
    families = sorted(HET_FAMILIES)
    by_seed = []
    for seed in (5, 6):
        cfg = McmcConfig(chains=2, iterations=300, seed=seed)
        rows = {r.family: r for r in compare_models(c, families, cfg=cfg)}
        for family, row in rows.items():
            s = run_hierarchical(c, ModelSpec(het_family=family), cfg)
            assert row.predictive == _predictive_summary(family, s.predictive)
            # the shared tables of the block give the numbers of a lone fit
            assert row.dic == mixture_dic(posterior_mixture(c, ModelSpec(het_family=family)), c)
        by_seed.append(rows)
    for family in families:
        assert by_seed[0][family].dic == by_seed[1][family].dic
        assert by_seed[0][family].predictive != by_seed[1][family].predictive
