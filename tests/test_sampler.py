import hashlib
import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, special

from hetprior import metaanalysis, sampler
from hetprior.data import MetaAnalysisCollection, StudyRecord
from hetprior.dic import compare_models
from hetprior.dist import HalfCauchy, HalfNormal, LogNormal, Normal, Uniform
from hetprior.metaanalysis import GridError, SingleMeta, tau_marginal
from hetprior.sampler import (
    BACKEND,
    HET_FAMILIES,
    ConfigError,
    McmcConfig,
    ModelSpec,
    PosteriorSamples,
    diagnostics,
    posterior_mixture,
    run_hierarchical,
    samples_from_csv,
    samples_to_csv,
    split_rhat,
    summarize_samples,
    summary_dict,
)

#: sha256 of scale, mu, tau, tau* and deviance draws of ``quick_run``, taken
#: with numpy 2.4.6 and scipy 1.17.1 (Python 3.11.7) and numpy's bundled
#: OpenBLAS on an x86-64 CPU whose numpy dispatches to AVX512 (SPR) kernels
GOLDEN_DIGEST = "93ade247c298fe3862e5ad60e758f4ddd98af87a37a0516b59e41f1ee5fcd7ab"


def synthetic_corpus(n_analyses, k, sigma, true_scale, seed):
    """Data generated from the model itself: tau_j ~ half-normal(true_scale)."""
    rng = np.random.default_rng(seed)
    analyses = []
    for j in range(n_analyses):
        tau = abs(rng.normal(0.0, true_scale))
        mu = rng.normal(0.0, 1.0)
        recs = tuple(
            StudyRecord(f"A{j}", f"S{i}", float(rng.normal(rng.normal(mu, tau), sigma)), sigma, j * k + i)
            for i in range(k)
        )
        analyses.append((f"A{j}", recs))
    return MetaAnalysisCollection(tuple(analyses))


def small_corpus(seed=5):
    rng = np.random.default_rng(seed)
    analyses = []
    for j in range(6):
        recs = tuple(
            StudyRecord(f"A{j}", f"S{i}", float(rng.normal(0.0, 0.4)), 0.15, j * 4 + i)
            for i in range(4)
        )
        analyses.append((f"A{j}", recs))
    return MetaAnalysisCollection(tuple(analyses))


QUICK = McmcConfig(chains=2, burn_in=200, iterations=500, seed=11)


@pytest.fixture(scope="module")
def quick_run():
    return run_hierarchical(small_corpus(), ModelSpec(), QUICK)


def test_run_is_deterministic(quick_run):
    again = run_hierarchical(small_corpus(), ModelSpec(), QUICK)
    np.testing.assert_array_equal(quick_run.mu, again.mu)
    np.testing.assert_array_equal(quick_run.tau, again.tau)
    np.testing.assert_array_equal(quick_run.draws("scale"), again.draws("scale"))
    np.testing.assert_array_equal(quick_run.predictive, again.predictive)
    np.testing.assert_array_equal(quick_run.deviance, again.deviance)


def test_adding_chains_does_not_perturb_existing_streams(quick_run):
    cfg3 = McmcConfig(chains=3, burn_in=200, iterations=500, seed=11)
    wider = run_hierarchical(small_corpus(), ModelSpec(), cfg3)
    np.testing.assert_array_equal(wider.mu[:2], quick_run.mu)
    np.testing.assert_array_equal(wider.tau[:2], quick_run.tau)


def test_draw_invariants(quick_run):
    assert np.all(quick_run.tau >= 0.0)
    assert np.all(quick_run.predictive >= 0.0)
    sc = quick_run.draws("scale")
    assert sc.min() > 0.0 and sc.max() < 10.0
    assert np.all(np.isfinite(quick_run.deviance))


def test_parameter_access(quick_run):
    names = quick_run.parameter_names()
    assert names[0] == "scale"
    assert "mu[A0]" in names and "tau[A5]" in names
    assert names[-2:] == ["tau_star", "deviance"]
    assert quick_run.draws("mu[A0]").shape == (2, 500)
    with pytest.raises(KeyError):
        quick_run.draws("mu[doesnotexist]")
    with pytest.raises(KeyError):
        quick_run.draws("nonsense")


def test_recovers_known_scale():
    c = synthetic_corpus(n_analyses=30, k=10, sigma=0.1, true_scale=0.3, seed=1)
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=500, iterations=2000, seed=7))
    sc = s.draws("scale")
    assert abs(sc.mean() - 0.3) < 3.0 * sc.std(ddof=1)


def test_zero_observed_heterogeneity_concentrates_scale_near_zero():
    analyses = tuple(
        (f"B{j}", tuple(StudyRecord(f"B{j}", f"S{i}", 0.7, 1e-3, j * 3 + i) for i in range(3)))
        for j in range(5)
    )
    c = MetaAnalysisCollection(analyses)
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=500, iterations=2000, seed=9))
    assert float(np.quantile(s.draws("scale"), 0.95)) < 0.05


def test_mu_update_matches_exact_conjugate_posterior():
    # pin tau via a log-normal family with near-degenerate hyperpriors,
    # then the sampled mu must match the closed-form normal posterior
    tau0 = 0.25
    y = np.array([0.4, -0.1, 0.3])
    se = np.array([0.2, 0.3, 0.25])
    recs = tuple(StudyRecord("A", f"S{i}", float(y[i]), float(se[i]), i) for i in range(3))
    c = MetaAnalysisCollection((("A", recs),))
    m = ModelSpec(
        het_family="log-normal",
        scale_hyperprior=Uniform(tau0 * (1 - 1e-9), tau0 * (1 + 1e-9)),
        shape_hyperprior=Uniform(1e-9, 2e-9),
    )
    s = run_hierarchical(c, m, McmcConfig(chains=2, burn_in=200, iterations=4000, seed=3))
    assert s.tau.min() == pytest.approx(tau0, abs=1e-7)
    assert s.tau.max() == pytest.approx(tau0, abs=1e-7)
    w = 1.0 / (se**2 + tau0**2)
    prec = w.sum() + 1.0 / 100.0**2
    mean_exact = float(w @ y) / prec
    sd_exact = math.sqrt(1.0 / prec)
    mu = s.draws("mu[A]").ravel()
    # given fixed tau the mu draws are iid, so plain MC standard errors apply
    assert abs(mu.mean() - mean_exact) < 3.0 * sd_exact / math.sqrt(mu.size)
    assert abs(mu.std(ddof=1) - sd_exact) < 3.0 * sd_exact / math.sqrt(2.0 * (mu.size - 1))


@pytest.mark.parametrize("family", ["exp", "half-cauchy", "log-normal"])
def test_other_families_run_and_respect_support(family):
    s = run_hierarchical(small_corpus(), ModelSpec(het_family=family),
                         McmcConfig(chains=2, burn_in=100, iterations=300, seed=21))
    assert np.all(s.tau >= 0.0)
    assert np.all(s.predictive >= 0.0)
    for name in s.hyper_names:
        assert np.all(s.hyper[name] > 0.0)
    if family == "log-normal":
        assert s.hyper_names == ("theta", "sigma")
        assert s.draws("sigma").max() < 5.0
        assert s.draws("theta").max() < 10.0


#: hyperparameter values for the family-record checks, in record order
_RECORD_HYPER = (0.7, 0.9)


@pytest.mark.parametrize("token", sorted(HET_FAMILIES))
def test_family_record_matches_its_distribution(token):
    """The sampler's vectorized cdf and quantile restate the scalar ones
    of ``dist``; both must describe the same family."""
    fam = HET_FAMILIES[token]
    hyper = _RECORD_HYPER[: len(fam.hyper_names)]
    x = np.linspace(0.0, 20.0, 401)[1:]
    p = np.linspace(0.0, 1.0, 201)[1:-1]
    d = fam.distribution(*hyper)
    assert d.token == token
    np.testing.assert_allclose(fam.cdf(x, *hyper), d.cdf(x), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fam.quantile(p, *hyper), d.quantile(p), rtol=1e-12, atol=1e-12)
    # per-chain (chains, 1) hyperparameters broadcast against the values
    per_chain = [np.array([[0.5 * h], [h], [2.0 * h]]) for h in hyper]
    cdf = fam.cdf(x, *per_chain)
    quant = fam.quantile(p, *per_chain)
    assert cdf.shape == (3, x.size) and quant.shape == (3, p.size)
    for c in range(3):
        dc = fam.distribution(*(float(h[c, 0]) for h in per_chain))
        np.testing.assert_allclose(cdf[c], dc.cdf(x), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(quant[c], dc.quantile(p), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "family, hyper",
    [("log-normal", ("scale",)), ("half-normal", ("theta", "sigma")), ("exp", ("scale", "sigma"))],
)
def test_posterior_samples_rejects_hyper_keys_of_another_family(family, hyper):
    # hyperparameters, mu[a], tau[a], tau_star, deviance
    row = [0.2] * len(hyper) + [0.0, 0.1, 0.1, 0.0]
    with pytest.raises(ValueError, match=rf"the {family} family and 1 analysis ids call for"):
        PosteriorSamples(family=family, table=np.tile(row, (1, 10, 1)), analysis_ids=("a",))


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(het_family="triangular")
    with pytest.raises(ConfigError):
        ModelSpec(effect_prior_sd=0.0)
    with pytest.raises(ConfigError):
        ModelSpec(scale_hyperprior=Uniform(-1.0, 5.0))  # negative scale support
    with pytest.raises(ConfigError):
        ModelSpec(scale_hyperprior=Normal(0.0, 1.0))  # unsupported hyperprior family
    # half-normal hyperprior on the scale is allowed
    ModelSpec(scale_hyperprior=HalfNormal(0.5))


def test_mcmc_config_validation():
    with pytest.raises(ConfigError):
        McmcConfig(chains=0)
    with pytest.raises(ConfigError):
        McmcConfig(iterations=0)
    with pytest.raises(ConfigError):
        McmcConfig(thin=0)
    with pytest.raises(ConfigError):
        McmcConfig(burn_in=0)


@pytest.mark.parametrize("seed", [-1, 0.5, None])
def test_mcmc_config_refuses_a_seed_that_is_not_a_nonnegative_integer_by_name(seed):
    with pytest.raises(ConfigError, match=rf"seed must be an integer >= 0, got {seed!r}"):
        McmcConfig(seed=seed)
    assert McmcConfig(seed=0).seed == 0


@pytest.mark.parametrize(
    "hyperprior, numbers",
    [
        (LogNormal(800.0, 1.0), "its median is inf, its cells would run from inf to its 0.999999 quantile inf"),
        (LogNormal(-800.0, 1.0), "its median is 0, its cells would run from 0 to its 0.999999 quantile 0"),
        (HalfCauchy(1e300), "its median is 1e+300, its cells would run from 2e+296 to its 0.999999 quantile 6.37e+305"),
    ],
    ids=["median-overflows", "median-underflows", "edges-overflow"],
)
def test_hyperprior_without_a_theta_axis_in_floats_is_refused_by_name(hyperprior, numbers):
    """Such a hyperprior once warned of overflows and then failed with
    "cannot convert float NaN to integer" (log-normal(800,1)) or a GridError
    blaming the analyses (half-cauchy(1e300)); it is now refused when the
    model is specified, before any tabulation."""
    message = f"hyperprior {hyperprior} has no theta cells in finite floats: {numbers}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_hierarchical(small_corpus(), ModelSpec(scale_hyperprior=hyperprior), McmcConfig(iterations=10))


def test_mcmc_config_needs_two_draws_in_all():
    with pytest.raises(ConfigError, match="give 1 draw, but the summaries need at least 2"):
        McmcConfig(chains=1, iterations=1)
    assert McmcConfig(chains=2, iterations=1).chains == 2
    assert McmcConfig(chains=1, iterations=2).iterations == 2


def test_thinning_changes_spacing_not_count():
    cfg_thin = McmcConfig(chains=1, burn_in=100, iterations=200, thin=5, seed=2)
    s = run_hierarchical(small_corpus(), ModelSpec(), cfg_thin)
    assert s.draws("scale").shape == (1, 200)


def test_split_rhat_calibration():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((2, 4000))
    assert split_rhat(iid) == pytest.approx(1.0, abs=0.01)
    disjoint = np.stack([rng.standard_normal(2000), rng.standard_normal(2000) + 10.0])
    assert split_rhat(disjoint) > 1.1
    const = np.ones((2, 100))
    assert split_rhat(const) == 1.0


def _split_rhat_of_one_column(x):
    """The split-R-hat formula for one (chains, n) column, with its
    variances and means over contiguous half-chain rows and the rest in
    Python floats."""
    n = x.shape[1]
    half = n // 2
    if half < 2:
        return math.nan
    h = np.concatenate([x[:, :half], x[:, n - half :]])
    w = float(h.var(axis=1, ddof=1).mean())
    b = half * float(h.mean(axis=1).var(ddof=1))
    var_plus = (half - 1) / half * w + b / half
    if w == 0.0:
        return 1.0 if var_plus == 0.0 else math.inf
    return math.sqrt(var_plus / w)


@pytest.mark.parametrize("n", [3, 257, 1000, 20001])
@pytest.mark.parametrize("chains", [1, 2, 4])
def test_split_rhat_of_a_table_equals_each_column_alone(chains, n):
    """One call on a (chains, n, P) table gives each column's R-hat bit for
    bit: ordinary columns of three scales, a constant column (1.0), one
    whose half-chains are constant but differ (inf), and with fewer than 4
    draws per chain every column NaN."""
    rng = np.random.default_rng(chains * n)
    table = rng.standard_normal((chains, n, 5)) * [1.0, 1e-3, 1e4, 1.0, 1.0]
    table[..., 3] = 0.5
    table[..., 4] = 0.25 * np.arange(chains)[:, None] + 0.5 * (np.arange(n) >= n // 2)
    rhat = split_rhat(table)
    assert rhat.shape == (5,)
    for j in range(5):
        alone = split_rhat(table[..., j])
        assert type(alone) is float
        np.testing.assert_array_equal([rhat[j], alone], [_split_rhat_of_one_column(table[..., j])] * 2)
    if n < 4:
        assert np.isnan(rhat).all()
    else:
        assert np.isfinite(rhat[:3]).all() and rhat[3] == 1.0 and rhat[4] == math.inf


def test_split_rhat_detects_within_chain_drift():
    # trend inside each chain: the split halves disagree
    trend = np.tile(np.linspace(0.0, 5.0, 1000), (2, 1))
    assert split_rhat(trend + np.random.default_rng(1).normal(0, 0.1, (2, 1000))) > 1.1


def test_chains_stuck_apart_are_not_reported_as_mixed():
    stuck = np.stack([np.full(1000, 0.25), np.full(1000, 0.5)])
    assert split_rhat(stuck) == math.inf


def test_diagnostics_warn_on_infinite_rhat_and_summary_holds_none():
    rng = np.random.default_rng(3)
    ids = ("a", "b")
    table = np.abs(rng.normal(0.3, 0.1, (2, 1000, 7)))  # scale, mu[a], mu[b], tau[a], tau[b], ...
    table[0, :, 0], table[1, :, 0] = 0.25, 0.5
    s = PosteriorSamples(family="half-normal", table=table, analysis_ids=ids)
    entries, warns = diagnostics(s)
    assert entries["scale"]["rhat"] is None
    assert "scale: split-Rhat infinite: every half-chain is constant, the halves differ" in warns
    text = json.dumps(summary_dict(s))
    assert "NaN" not in text and "Infinity" not in text


def test_posterior_samples_columns_are_read_only_views(quick_run):
    s = quick_run
    names = s.parameter_names()
    assert s.table.shape == (s.n_chains, s.n_kept, len(names))
    for name, block in [("scale", s.hyper["scale"]), ("tau_star", s.predictive), ("deviance", s.deviance)]:
        np.testing.assert_array_equal(block, s.table[..., names.index(name)])
    np.testing.assert_array_equal(s.mu[..., 1], s.draws(f"mu[{s.analysis_ids[1]}]"))
    np.testing.assert_array_equal(s.tau[..., 1], s.draws(f"tau[{s.analysis_ids[1]}]"))
    for block in (s.table, s.hyper["scale"], s.mu, s.tau, s.predictive, s.deviance):
        assert np.shares_memory(block, s.table)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


def test_diagnostics_report(quick_run):
    entries, _ = diagnostics(quick_run)
    assert list(entries) == quick_run.parameter_names()
    for name in ("scale", "tau_star", "deviance"):
        assert set(entries[name]) == {"rhat"}
        assert entries[name]["rhat"] is not None and entries[name]["rhat"] < 1.05


def test_diagnostics_single_chain_rhat_from_its_halves():
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=1, burn_in=100, iterations=300, seed=4))
    scale = diagnostics(s)[0]["scale"]
    assert math.isfinite(scale["rhat"]) and scale["rhat"] < 1.05


def test_diagnostics_flag_one_drifting_chain():
    rng = np.random.default_rng(6)
    table = np.abs(rng.normal(0.3, 0.1, (1, 1000, 5)))  # scale, mu[a], tau[a], tau_star, deviance
    table[0, :, 0] = np.linspace(0.2, 0.6, 1000) + rng.normal(0.0, 0.02, 1000)
    entries, warns = diagnostics(PosteriorSamples(family="half-normal", table=table, analysis_ids=("a",)))
    assert entries["scale"]["rhat"] > 1.01
    assert f"scale: split-Rhat {entries['scale']['rhat']:.3f} > 1.01" in warns


def test_diagnostics_warnings_trigger():
    # tiny run: fewer than 400 draws in all is flagged once, for the run
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=2, burn_in=50, iterations=60, seed=8))
    _, warns = diagnostics(s)
    assert [w for w in warns if "< 400" in w] == ["120 draws (2 chains x 60 kept) < 400"]
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=2, burn_in=50, iterations=200, seed=8))
    assert not any("< 400" in w for w in diagnostics(s)[1])


def test_summarize_samples_basics():
    out = summarize_samples([1.0, 2.0, 3.0, 4.0, 5.0])
    assert out["mean"] == pytest.approx(3.0)
    assert out["median"] == pytest.approx(3.0)
    const = summarize_samples([2.5] * 10)
    assert const["sd"] == 0.0
    assert const["q95"] == 2.5 and const["q99"] == 2.5
    with pytest.raises(ValueError):
        summarize_samples([1.0])


def test_summarize_samples_against_distribution_oracle():
    from hetprior.dist import HalfNormal

    draws = HalfNormal(0.22).sample(np.random.default_rng(17), 1_000_000)
    out = summarize_samples(draws)
    assert out["q95"] == pytest.approx(0.43, abs=0.005)


def test_csv_round_trip(quick_run):
    text = samples_to_csv(quick_run)
    lines = text.splitlines()
    assert lines[0] == ",".join(["chain", "iter", *quick_run.parameter_names()])
    assert len(lines) == 1 + quick_run.n_chains * quick_run.n_kept
    assert lines[1].startswith("0,0,") and lines[-1].startswith(f"1,{quick_run.n_kept - 1},")
    parsed = samples_from_csv(text, quick_run.family)
    assert parsed.analysis_ids == quick_run.analysis_ids
    for name in quick_run.parameter_names():
        np.testing.assert_array_equal(parsed.draws(name), quick_run.draws(name))


def test_csv_round_trip_quotes_analysis_ids():
    c = MetaAnalysisCollection(
        tuple(
            (aid, tuple(StudyRecord(aid, f"S{i}", 0.1 * i + j, 0.2, 3 * j + i) for i in range(3)))
            for j, aid in enumerate(['trial "A", 2001', "B, pooled"])
        )
    )
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=10, iterations=20, seed=2))
    text = samples_to_csv(s)
    assert '"mu[trial ""A"", 2001]"' in text.splitlines()[0]
    back = samples_from_csv(text, "half-normal")
    assert back.analysis_ids == s.analysis_ids
    np.testing.assert_array_equal(back.mu, s.mu)
    np.testing.assert_array_equal(back.tau, s.tau)


def _draw_csv_lines():
    s = run_hierarchical(small_corpus(), ModelSpec(), McmcConfig(chains=2, burn_in=20, iterations=30, seed=4))
    return samples_to_csv(s).splitlines(keepends=True)


def test_samples_from_csv_rejects_file_cut_at_line_boundary():
    lines = _draw_csv_lines()
    with pytest.raises(ValueError, match=r"line 60: chain 1 ends after 29 of 30 iterations"):
        samples_from_csv("".join(lines[:-1]), "half-normal")


def _edit_line(i, edit):
    return lambda lines: lines[:i] + [edit(lines[i])] + lines[i + 1 :]


def _last_field(value):
    return lambda line: line.rsplit(",", 1)[0] + value


@pytest.mark.parametrize(
    "damage, message",
    [
        (_edit_line(5, _last_field("\n")), "line 6: expected 17 fields, got 16"),
        (_edit_line(5, lambda line: "-1" + line[1:]), "line 6: got chain -1, iter 4, expected chain 0, iter 4"),
        (lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:], "line 6: got chain 0, iter 5, expected chain 0, iter 4"),
        (_edit_line(40, lambda line: line.replace("1,9,", "1,10,", 1)), "line 41: got chain 1, iter 10, expected chain 1, iter 9"),
        (_edit_line(5, _last_field(",oops\n")), "line 6: deviance is not a number: 'oops'"),
        (_edit_line(5, _last_field(",nan\n")), "line 6: deviance is nan"),
    ],
    ids=["ragged", "negative-chain", "out-of-order", "iter-skipped", "not-a-number", "non-finite"],
)
def test_samples_from_csv_rejects_malformed_row(damage, message):
    with pytest.raises(ValueError, match=message):
        samples_from_csv("".join(damage(_draw_csv_lines())), "half-normal")


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda h: h.replace("tau[A2],", "tau[A2],tau[A2],"), "duplicate column 'tau\\[A2\\]'"),
        (lambda h: h.replace(",deviance", ""), "missing column 'deviance'"),
        (lambda h: h.replace("tau[A5]", "tau[A9]"), "missing column 'tau\\[A5\\]'"),
        (lambda h: h.replace("deviance", "deviance,extra"), "unexpected column 'extra'"),
        (lambda h: h.replace("tau_star,deviance", "deviance,tau_star"), "column 16 is 'deviance', expected 'tau_star'"),
        (lambda h: h.replace("scale", "theta"), "missing column 'scale'"),
    ],
    ids=["duplicate", "missing", "renamed", "unexpected", "misplaced", "wrong-family"],
)
def test_samples_from_csv_rejects_bad_header(damage, message):
    lines = _draw_csv_lines()
    lines[0] = damage(lines[0])
    with pytest.raises(ValueError, match=message):
        samples_from_csv("".join(lines), "half-normal")


def test_samples_from_csv_rejects_long_layout_with_rerun_hint():
    text = "chain,iter,parameter,value\n0,0,scale,0.2\n"
    with pytest.raises(ValueError, match=r"schema-1 long layout.*re-run `hetprior fit`"):
        samples_from_csv(text, "half-normal")


def test_summary_dict_structure(quick_run):
    doc = summary_dict(quick_run)
    assert doc["family"] == "half-normal"
    assert doc["backend"] == BACKEND
    assert set(doc["parameters"]["scale"]) == {"mean", "sd", "median", "q95", "q99"}
    assert "scale" in doc["diagnostics"]
    quadrature = doc["quadrature"]
    assert set(quadrature) == {"tau_nodes", "theta_cells", "theta_range"}
    assert quadrature["tau_nodes"] >= 500 and set(quadrature["theta_cells"]) == {"scale"}
    assert quadrature["theta_range"] == {"scale": [0.0, 10.0]}
    assert isinstance(doc["warnings"], list)


def test_posterior_samples_invariant_rejects_negative_tau(quick_run):
    bad = quick_run.table.copy()
    bad[0, 0, quick_run.parameter_names().index(f"tau[{quick_run.analysis_ids[0]}]")] = -0.1
    with pytest.raises(ValueError):
        PosteriorSamples(
            family=quick_run.family,
            table=bad,
            analysis_ids=quick_run.analysis_ids,
            model=quick_run.model,
            config=quick_run.config,
        )


def _digest(s):
    h = hashlib.sha256()
    for block in (s.draws("scale"), s.mu, s.tau, s.predictive, s.deviance):
        h.update(block.tobytes())
    return h.hexdigest()


def test_quick_run_matches_golden_digest(quick_run):
    """Pins every draw of a fixed-seed run, so any change to the sampler's
    arithmetic or its use of the random streams shows up here.

    The digest holds the last bits of numpy's SIMD-dispatched log, log1p,
    tan and exp and of scipy's erfinv and ndtri, which may differ between
    CPU feature sets (AVX512 against AVX2) and between numpy or scipy
    versions. A mismatch on another machine or stack (see GOLDEN_DIGEST)
    is not by itself a sampler bug: ``test_run_is_deterministic`` and
    ``test_adding_chains_does_not_perturb_existing_streams`` are the checks
    that hold on every machine.
    """
    assert _digest(quick_run) == GOLDEN_DIGEST


def test_flatten_squares_standard_errors_with_numpy():
    from hetprior.sampler import _flatten

    sigma = np.random.default_rng(3).uniform(0.01, 1.0, 20_000)
    # values where Python's ** (libm pow) and numpy's array square disagree
    # in the last bit, plus some where they agree
    differ = sigma[np.array([s**2 for s in sigma.tolist()]) != sigma**2]
    sigma = np.concatenate([differ, sigma[:50]])
    recs = tuple(StudyRecord("A", f"S{i}", 0.0, float(v), i) for i, v in enumerate(sigma))
    _, se2, _ = _flatten(MetaAnalysisCollection((("A", recs),)))
    np.testing.assert_array_equal(se2, np.asarray(sigma) ** 2)


def _scale_pileup_warnings(c, cfg):
    doc = summary_dict(run_hierarchical(c, ModelSpec(), cfg))
    return [w for w in doc["warnings"] if "piles up" in w]


def test_scale_piled_up_at_hyperprior_bound_warns():
    # three analyses with tau near 30 against the default Uniform(0, 10)
    far = MetaAnalysisCollection(
        tuple(
            (f"F{j}", tuple(StudyRecord(f"F{j}", f"S{i}", 30.0 * (-1) ** i, 1.0, 4 * j + i) for i in range(4)))
            for j in range(3)
        )
    )
    cfg = McmcConfig(chains=2, burn_in=100, iterations=400, seed=3)
    warns = _scale_pileup_warnings(far, cfg)
    assert len(warns) == 1 and warns[0].startswith("scale: ")
    assert "[0, 10]" in warns[0]


def test_heterogeneity_far_beyond_the_hyperprior_fails_naming_the_analysis():
    # tau near 3000 against the default Uniform(0, 10) scale: the family puts
    # no mass where this analysis has any likelihood
    far = (("far", (StudyRecord("far", "a", 3000.0, 1.0, 0), StudyRecord("far", "b", -3000.0, 1.0, 1))),)
    near = (("near", (StudyRecord("near", "a", 0.1, 0.2, 2), StudyRecord("near", "b", 0.3, 0.2, 3))),)
    with pytest.raises(GridError, match=r"analyses \['far'\] have no likelihood"):
        run_hierarchical(MetaAnalysisCollection(far + near), ModelSpec(), QUICK)


def test_scale_pileup_silent_on_ordinary_corpora():
    assert _scale_pileup_warnings(small_corpus(), QUICK) == []
    # the benchmark's paper-sized corpus: 40 analyses of 3-18 studies,
    # tau_j ~ half-normal(0.2), standard errors 0.1-0.6
    rng = np.random.default_rng(4)
    analyses = []
    for j, k in enumerate(round(3 + 15 * ((i + 0.5) / 40) ** 1.1) for i in range(40)):
        tau, mu = abs(rng.normal(0.0, 0.2)), rng.normal(0.0, 0.5)
        se = rng.uniform(0.1, 0.6, k)
        y = rng.normal(mu, np.sqrt(se**2 + tau**2))
        aid = f"ma{j:03d}"
        analyses.append(
            (aid, tuple(StudyRecord(aid, f"s{i}", float(y[i]), float(se[i]), j * 20 + i) for i in range(k)))
        )
    cfg = McmcConfig(chains=4, burn_in=64, iterations=256, seed=5)
    assert _scale_pileup_warnings(MetaAnalysisCollection(tuple(analyses)), cfg) == []


# -- the whole hierarchical posterior against an independent oracle --------------

#: three analyses (estimates, standard errors) whose posterior the oracle integrates
ORACLE_CORPUS = (
    ((0.1, 0.5, -0.2), (0.2, 0.25, 0.3)),
    ((0.8, 0.3), (0.3, 0.2)),
    ((-0.4, 0.2, 0.6, 0.0), (0.25, 0.3, 0.2, 0.35)),
)
#: tau = scale e^v for a one-scale family, theta e^(sigma v) for the
#: log-normal; the integrands are analytic in v and vanish at both ends, so
#: the trapezoid rule on these grids converges geometrically
_ORACLE_V = {"scale": np.linspace(-40.0, 40.0, 801), "log-normal": np.linspace(-10.0, 10.0, 201)}
_UNIT_DENSITY = {
    "half-normal": lambda t: math.sqrt(2.0 / math.pi) * np.exp(-0.5 * t * t),
    "exp": lambda t: np.exp(-t),
    "half-cauchy": lambda t: 2.0 / (math.pi * (1.0 + t * t)),
}
#: Simpson weights of the 201-point rules up to a cut
_SIMPSON = np.where(np.arange(201) % 2 == 1, 4.0, 2.0)
_SIMPSON[[0, -1]] = 1.0


def _oracle_likelihood(tau):
    """L_j(tau) / L_j(0) of each analysis of ORACLE_CORPUS (first axis) with
    its Normal(0, 100) effect integrated out, written out afresh."""
    out = []
    for y, se in ORACLE_CORPUS:
        def log_l(t):
            w = 1.0 / np.concatenate([np.square(se) + t[..., None] ** 2, np.full((*t.shape, 1), 1e4)], axis=-1)
            yy = np.append(y, 0.0)
            mean = (w * yy).sum(axis=-1, keepdims=True) / w.sum(axis=-1, keepdims=True)
            q = (w * (yy - mean) ** 2).sum(axis=-1)
            return 0.5 * np.log(w).sum(axis=-1) - 0.5 * np.log(w.sum(axis=-1)) - 0.5 * q

        out.append(np.exp(log_l(tau) - log_l(np.zeros(1))))
    return np.array(out)


def _oracle_mixed(family, scale, sigma=None, upper=None):
    """int L_j(tau) f(tau | hyper) dtau for each analysis (first axis), over
    tau <= upper if given (Simpson's rule up to the cut), for one scale or
    one log-normal median and each shape in ``sigma`` (last axis)."""
    if sigma is None:
        v = _ORACLE_V["scale"] if upper is None else np.linspace(-40.0, math.log(upper / scale), 201)
        t = np.exp(v)
        f = _oracle_likelihood(scale * t) * _UNIT_DENSITY[family](t) * t
    else:
        if upper is None:
            v = np.broadcast_to(_ORACLE_V["log-normal"], (sigma.size, 201))
        else:
            cut = (math.log(upper) - math.log(scale)) / sigma
            v = -10.0 + np.multiply.outer(cut + 10.0, np.linspace(0.0, 1.0, 201))
        f = _oracle_likelihood(scale * np.exp(sigma[:, None] * v)) * np.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
    if upper is None:
        return np.trapezoid(f, v, axis=-1)
    return (f * _SIMPSON).sum(axis=-1) * (v[..., -1] - v[..., 0]) / 600.0


def _oracle_cdfs(family, checks):
    """P(quantity <= value | y) under the default ModelSpec (uniform
    hyperpriors on (0, 10) and, for the shape, (0, 5)) for each check name ->
    (quantity, value), a quantity being a hyperparameter name, ``"tau_1"`` or
    ``"tau_star"``. The scale, or the log-normal's median, is integrated over
    u = log(scale) by scipy's adaptive quad_vec, split at the checked
    values; the log-normal's shape by Gauss-Legendre rules, split at the
    checked values; tau by the rules of :func:`_oracle_mixed`."""
    names = list(ModelSpec(het_family=family).hyperpriors)
    cdf = HET_FAMILIES[family].cdf
    t_1 = [v for q, v in checks.values() if q == "tau_1"]
    t_star = [v for q, v in checks.values() if q == "tau_star"]
    sigma_cuts = [0.0, *sorted(v for q, v in checks.values() if q == "sigma"), 5.0]
    x, wx = special.roots_legendre(12)
    sigma = np.concatenate([a + (b - a) * (x + 1.0) / 2.0 for a, b in zip(sigma_cuts, sigma_cuts[1:])])
    gauss = np.concatenate([(b - a) / 2.0 * wx for a, b in zip(sigma_cuts, sigma_cuts[1:])])
    piece = np.repeat(np.arange(len(sigma_cuts) - 1), x.size)

    def integrand(u):
        # [posterior mass per shape piece, then weighted by each tau* and tau_1 cdf]
        scale = math.exp(u)
        if family == "log-normal":
            m = _oracle_mixed(family, scale, sigma)
            post = np.prod(m, axis=0) * gauss * scale
            parts = [np.bincount(piece, post, minlength=len(sigma_cuts) - 1)]
            parts += [[post @ cdf(t, scale, sigma)] for t in t_star]
            parts += [[post @ (_oracle_mixed(family, scale, sigma, t)[0] / m[0])] for t in t_1]
        else:
            m = _oracle_mixed(family, scale)
            post = np.prod(m) * scale
            parts = [[post], *[[post * cdf(t, scale)] for t in t_star]]
            parts += [[post * _oracle_mixed(family, scale, upper=t)[0] / m[0]] for t in t_1]
        return np.concatenate(parts)

    scale_cuts = sorted(v for q, v in checks.values() if q == names[0])
    edges = [-12.0, *(math.log(v) for v in scale_cuts), math.log(10.0)]
    pieces = [
        integrate.quad_vec(integrand, a, b, epsrel=1e-3, norm="max", quadrature="gk15")[0]
        for a, b in zip(edges, edges[1:])
    ]
    n_mass = len(sigma_cuts) - 1 if family == "log-normal" else 1
    total = sum(p[:n_mass].sum() for p in pieces)
    out = {}
    for name, (q, v) in checks.items():
        if q == names[0]:
            value = sum(p[:n_mass].sum() for p in pieces[: scale_cuts.index(v) + 1])
        elif q == "sigma":
            value = sum(p[: sigma_cuts.index(v)].sum() for p in pieces)
        elif q == "tau_star":
            value = sum(p[n_mass + t_star.index(v)] for p in pieces)
        else:
            value = sum(p[n_mass + len(t_star) + t_1.index(v)] for p in pieces)
        out[name] = value / total
    return out


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_whole_posterior_matches_quadrature_oracle(family):
    """The 5/50/95% points of every hyperparameter and the medians of tau_1
    and tau* of 4 x 5000 draws sit, in the oracle's posterior, within
    Monte Carlo error of their probabilities. The oracle shares no code
    with the sampler's grid: scipy's adaptive quadrature over the log scale,
    Gauss-Legendre over the shape, and geometric-convergence trapezoid
    rules over tau."""
    c = MetaAnalysisCollection(
        tuple(
            (f"A{j}", tuple(StudyRecord(f"A{j}", f"S{i}", yi, si, 10 * j + i) for i, (yi, si) in enumerate(zip(y, se))))
            for j, (y, se) in enumerate(ORACLE_CORPUS)
        )
    )
    s = run_hierarchical(c, ModelSpec(het_family=family), McmcConfig(chains=4, burn_in=1, iterations=5000, seed=3))
    checks = {
        (name, p): (name, float(np.quantile(s.draws(name), p)))
        for name in s.hyper_names
        for p in (0.05, 0.5, 0.95)
    }
    checks[("tau_1", 0.5)] = ("tau_1", float(np.median(s.draws("tau[A0]"))))
    checks[("tau_star", 0.5)] = ("tau_star", float(np.median(s.predictive)))
    n = s.predictive.size
    for (name, p), prob in _oracle_cdfs(family, checks).items():
        assert abs(prob - p) < 4.0 * math.sqrt(p * (1.0 - p) / n), (name, p, prob)


# -- the sampler's tau grid against one 4x finer ----------------------------------


def _collection(analyses):
    """A collection of (estimates, standard errors) analyses named A0, A1, ..."""
    return MetaAnalysisCollection(
        tuple(
            (f"A{j}", tuple(
                StudyRecord(f"A{j}", f"S{i}", float(yi), float(si), 100 * j + i)
                for i, (yi, si) in enumerate(zip(y, se))
            ))
            for j, (y, se) in enumerate(analyses)
        )
    )


def _drawn_analyses(rng, sizes, taus, se_lo, se_hi):
    """Analyses of the model itself: mu_j ~ N(0, 0.5^2), standard errors
    uniform on [se_lo, se_hi], one per size and tau."""
    analyses = []
    for k, tau in zip(sizes, taus):
        mu = rng.normal(0.0, 0.5)
        se = rng.uniform(se_lo, se_hi, k)
        analyses.append((rng.normal(mu, np.sqrt(se**2 + tau**2)), se))
    return analyses


def _paper_shaped():
    """40 analyses of 3-18 studies, standard errors 0.1-0.6, tau_j ~ half-normal(0.2)."""
    rng = np.random.default_rng(40)
    return _drawn_analyses(rng, rng.integers(3, 19, 40), np.abs(rng.normal(0.0, 0.2, 40)), 0.1, 0.6)


def _mixed_precision():
    """12 analyses of 3-8 studies with standard errors 0.3-1.5, tau_j ~
    half-normal(0.2), and 3 of 6 studies with standard errors 1e-3 whose tau_j
    (0.01, 0.03, 0.1) the grid must resolve near 0."""
    rng = np.random.default_rng(15)
    coarse = _drawn_analyses(rng, rng.integers(3, 9, 12), np.abs(rng.normal(0.0, 0.2, 12)), 0.3, 1.5)
    return coarse + _drawn_analyses(rng, [6, 6, 6], [0.01, 0.03, 0.1], 1e-3, 1e-3)


def _grid_checked(s):
    """The 5/50/95% points of each hyperparameter, every tau_j median, and
    the median and 95% point of tau*."""
    out = {}
    for name in s.hyper_names:
        for p, q in zip((5, 50, 95), np.quantile(s.draws(name), [0.05, 0.5, 0.95])):
            out[f"{name} {p}%"] = q
    for aid, median in zip(s.analysis_ids, np.median(s.tau, axis=(0, 1))):
        out[f"tau[{aid}] 50%"] = median
    out["tau* 50%"], out["tau* 95%"] = np.quantile(s.predictive, [0.5, 0.95])
    return out


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_tau_grid_agrees_with_one_four_times_finer(family, monkeypatch):
    """At one seed, so both grids see the same uniforms, draws from the
    sampler's tau grid and from a grid of the same shape with 4x the nodes
    agree within 0.5% on every checked quantile, on the oracle's corpus, a
    paper-shaped corpus and a corpus whose precise analyses have tau_j near 0.
    A squared 500-node grid fails here, by about 1% on the tightest analysis'
    tau_j."""
    cfg = McmcConfig(chains=4, burn_in=1, iterations=5000, seed=7)
    m = ModelSpec(het_family=family)
    for corpus in (ORACLE_CORPUS, _paper_shaped(), _mixed_precision()):
        c = _collection(corpus)
        coarse_run = run_hierarchical(c, m, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(metaanalysis, "_TAU_NODES", 4 * metaanalysis._TAU_NODES)
            fine_run = run_hierarchical(c, m, cfg)
        assert fine_run.quadrature["tau_nodes"] == 4 * coarse_run.quadrature["tau_nodes"]
        coarse, fine = _grid_checked(coarse_run), _grid_checked(fine_run)
        for name, value in coarse.items():
            assert value == pytest.approx(fine[name], rel=5e-3), (c.n_analyses, name)


def test_analyze_and_the_sampler_share_the_base_tau_nodes():
    """On one analysis under a prior whose 0.9999 quantile lies above the
    reference half-normal's, ``analyze``'s tau posterior starts from the
    sampler's base tau nodes, bit for bit."""
    y, se = (0.1, 0.5, -0.2, 0.3), (0.2, 0.25, 0.3, 0.22)
    prior = HalfCauchy(1.0)
    tables = sampler._CorpusTables(_collection([(y, se)]), ModelSpec())
    base = sampler._quadrature(tables, ModelSpec())[0][0][: metaanalysis._TAU_NODES]
    assert prior.quantile(0.9999) > base[-1]
    td = tau_marginal(SingleMeta(y=y, sigma=se), prior)
    assert np.array_equal(td.grid[: base.size], base)


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_tau_grid_stops_at_the_first_extension_that_passes(family, monkeypatch):
    """The grid is the base plus E doublings of ``_TAU_NODES`` / 10 nodes,
    and E is the fewest that pass the tail test: allowed E - 1, the
    quadrature fails saying the tau posterior mass does not decay."""
    m = ModelSpec(het_family=family)
    for c in (_collection(ORACLE_CORPUS), small_corpus(), _collection(_mixed_precision())):
        nodes = sampler._quadrature(sampler._CorpusTables(c, m), m)[0][0]
        base = metaanalysis._TAU_NODES
        extensions, rest = divmod(nodes.size - base, base // 10)
        assert rest == 0 and extensions >= 0, nodes.size
        with monkeypatch.context() as patch:
            patch.setattr(metaanalysis, "_MAX_EXTENSIONS", extensions - 1)
            with pytest.raises(GridError, match="tau posterior mass does not decay"):
                sampler._quadrature(sampler._CorpusTables(c, m), m)


@pytest.mark.parametrize("hi0", [1e-3, 0.37, 1.0, 123.4])
def test_tau_grids_are_nested(hi0):
    """Each extension's grid starts with the grid of one doubling fewer, bit
    for bit, so the quadrature tabulates each node once."""
    per = metaanalysis._TAU_NODES // 10
    for extensions in range(9):
        grid = metaanalysis._tau_grid(hi0, extensions)
        assert grid.size == metaanalysis._TAU_NODES + per * extensions
        assert np.array_equal(metaanalysis._tau_grid(hi0, extensions + 1)[: grid.size], grid)
    assert metaanalysis._tau_grid(hi0, 9)[-1] == hi0 * 2.0**9


@pytest.mark.parametrize("mixture", [False, True])
def test_extended_cells_equal_one_shot_tabulation(mixture):
    """The quadrature's cells, tabulated one doubling per pass, equal the
    base table followed by one tabulation of every extension node, bit for
    bit, and so do the conditional moments of a posterior mixture."""
    c = small_corpus()
    tables = sampler._CorpusTables(c, ModelSpec())
    studies = tables.y, tables.se2, tables.offsets, tables.mu_prior
    base_cells, last, scale, base_moments = sampler._cell_likelihoods(*studies, tables.base)
    for family in sorted(HET_FAMILIES):
        (nodes, cells), *rest = sampler._quadrature(tables, ModelSpec(het_family=family), mixture)
        assert nodes.size > metaanalysis._TAU_NODES  # every family's grid here is extended
        ext, _, _, ext_moments = sampler._cell_likelihoods(
            *studies, nodes[metaanalysis._TAU_NODES :], last, scale
        )
        assert np.array_equal(cells, np.concatenate([base_cells, ext]))
        if mixture:
            whole = np.concatenate([base_moments, ext_moments], axis=2)
            assert np.array_equal(np.concatenate(rest[-1], axis=2), whole)


def test_compare_tabulates_the_shared_base_grid_once(monkeypatch):
    """``compare`` builds one set of corpus tables and passes it to every
    family, so four families tabulate the base grid once; tables built
    under another effect prior, or for another corpus object, are refused."""
    calls, cell_likelihoods = [], sampler._cell_likelihoods

    def counted(y, se2, offsets, mu_prior, nodes, *rest):
        calls.append(nodes[0] == 0.0)  # only the base grid starts at tau = 0
        return cell_likelihoods(y, se2, offsets, mu_prior, nodes, *rest)

    monkeypatch.setattr(sampler, "_cell_likelihoods", counted)
    c = small_corpus()
    cfg = McmcConfig(chains=2, burn_in=1, iterations=20, seed=3)
    rows = compare_models(c, sorted(HET_FAMILIES), cfg)
    assert [r.error for r in rows] == [None] * 4
    assert calls.count(True) == 1 and len(calls) > 1
    with pytest.raises(ValueError, match="effect prior"):
        sampler._quadrature(sampler._CorpusTables(c, ModelSpec(effect_prior_sd=10.0)), ModelSpec())
    with pytest.raises(ValueError, match="another corpus"):
        posterior_mixture(c, ModelSpec(), sampler._CorpusTables(small_corpus(), ModelSpec()))


def _conditional_moments(y, se2, offsets, mu_prior, nodes):
    """Reference for the moments of ``_cell_likelihoods``, pooled apart:
    (N, nodes) tables of m_j(tau), the mean of mu_j given tau_j = tau, and
    E[D_j | tau] = sum_i log 2 pi v_ij + ((y_ij - m_j)^2 + 1 / P_j) / v_ij,
    v_ij = sigma_ij^2 + tau^2, P_j the conjugate normal's precision."""
    prior_prec = 1.0 / mu_prior.sd**2
    effect, dev = np.empty((2, offsets.size - 1, nodes.size))
    for j, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        est = y[start:stop, None]
        v = se2[start:stop, None] + np.square(nodes)
        wgt = 1.0 / v
        prec = prior_prec + wgt.sum(axis=0)
        effect[j] = (mu_prior.mean * prior_prec + (wgt * est).sum(axis=0)) / prec
        resid2 = np.square(est - effect[j]) + 1.0 / prec
        dev[j] = (np.log(v) + resid2 * wgt).sum(axis=0) + (stop - start) * math.log(2.0 * math.pi)
    return effect, dev


@pytest.mark.parametrize("corpus", ["sparse", "mixed-precision"])
def test_moments_from_the_pooled_sums_match_a_direct_reference(corpus):
    """m_j(tau) from the pooled sums of log L_j is the reference's bit for
    bit, and E[D_j | tau] matches within 1e-12, relative where it exceeds 1
    (a precise analysis' E[D_j | tau] reaches 6.6e4, whose float step is
    1.5e-11), at the base nodes and at three doublings' extension nodes."""
    c = _collection(_sparse_shaped() if corpus == "sparse" else _mixed_precision())
    tables = sampler._CorpusTables(c, ModelSpec())
    mu_prior = tables.mu_prior
    studies = tables.y, tables.se2, tables.offsets, mu_prior
    nodes = metaanalysis._tau_grid(tables.hi0, 3)
    base, ext = nodes[: metaanalysis._TAU_NODES], nodes[metaanalysis._TAU_NODES :]
    _, last, scale, at_base = sampler._cell_likelihoods(*studies, base)
    at_ext = sampler._cell_likelihoods(*studies, ext, last, scale)[3]
    for at, grid in ((at_base, base), (at_ext, ext)):
        effect, dev = _conditional_moments(*studies[:3], mu_prior, grid)
        assert np.array_equal(at[0], effect)
        np.testing.assert_allclose(at[1], dev, rtol=1e-12, atol=1e-12)


# -- the tau-cell pick against a one-level reference -----------------------------

#: the tree's float32 partial sums may move a cell boundary by this share of
#: an analysis' total M_g Lbar_jg: 42 float32 roundings (2^-24 each), the
#: mass cast, the product, the sum of 8, and the cumulative sums of 8, 8 and
#: up to 16 of the three levels; the cases below move one by at most 6.2e-8
_PICK_SLIVER = 42 * 2.0**-24


def _sparse_shaped(n_analyses=120, seed=12):
    """Analyses of 2, 3 or 4 studies, standard errors 0.1-0.6, a third with tau_j = 0."""
    rng = np.random.default_rng(seed)
    taus = np.abs(rng.normal(0.0, 0.2, n_analyses))
    taus[: n_analyses // 3] = 0.0
    return _drawn_analyses(rng, [2, 3, 4] * (n_analyses // 3), taus, 0.1, 0.6)


@pytest.mark.parametrize(
    "family, corpus",
    [(family, "oracle") for family in sorted(HET_FAMILIES)] + [("half-cauchy", "paper")],
)
def test_tau_pick_matches_one_level_reference(family, corpus):
    """Given the same uniforms, the tree picks the tau cell that a float64
    searchsorted over the cumulative M_g Lbar_jg of the drawn theta cell
    picks, except within ``_PICK_SLIVER`` of that analysis' total from a
    cell boundary, and then an adjacent cell."""
    c = _collection(ORACLE_CORPUS if corpus == "oracle" else _paper_shaped())
    fam = HET_FAMILIES[family]
    m = ModelSpec(het_family=family)
    grid, lo, hi, w = sampler._quadrature(sampler._CorpusTables(c, m), m)
    assert grid[0].size > metaanalysis._TAU_NODES  # the grid is extended
    rng = np.random.default_rng(8)
    cell = rng.choice(w.size, 4000, p=w / w.sum())
    u = rng.random((cell.size, c.n_analyses))
    tau = np.empty_like(u)
    centre = sampler._centre(lo, hi)
    with np.errstate(divide="ignore"):  # log(0) at tau = 0, as in run_hierarchical
        sampler._tau_draws(fam, *grid, centre, cell, u, tau)
    nodes, lbar = grid
    lbar = lbar.astype(float)
    picked = np.searchsorted(nodes, tau, side="right") - 1
    for k in np.unique(cell):
        rows = np.flatnonzero(cell == k)
        with np.errstate(divide="ignore"):
            cum = np.cumsum(np.diff(fam.cdf(nodes, *centre[k]))[:, None] * lbar, axis=0)
        for j in range(c.n_analyses):
            x = u[rows, j] * cum[-1, j]
            ref = np.searchsorted(cum[:, j], x, side="right")
            off = picked[rows, j] != ref
            assert np.all(np.abs(picked[rows, j] - ref) <= 1), (k, j)
            boundary = cum[np.minimum(picked[rows, j], ref)[off], j]
            assert np.all(np.abs(x[off] - boundary) <= _PICK_SLIVER * cum[-1, j]), (k, j)


@pytest.mark.parametrize("family", sorted(HET_FAMILIES))
def test_draws_do_not_depend_on_the_batching(family, monkeypatch):
    """With one drawn theta cell per batch and one draw per chunk, every
    draw is the default run's, bit for bit; every family's grid here is
    extended, so the picks reach the extension's cells."""
    m = ModelSpec(het_family=family)
    default = run_hierarchical(small_corpus(), m, QUICK).table
    monkeypatch.setattr(sampler, "_BLOCK", 1)
    np.testing.assert_array_equal(run_hierarchical(small_corpus(), m, QUICK).table, default)


def test_sampling_memory_stays_within_budget():
    """tracemalloc's peak over one compare_sparse-shaped fit (120 analyses
    of 2-4 studies, 4 x 40 draws, log-normal) stays under 4 MiB; the tree's
    batches hold about 1 MiB, where tables built for every drawn theta cell
    at once peaked near 10 MiB."""
    import tracemalloc

    c = _collection(_sparse_shaped())
    m, cfg = ModelSpec(het_family="log-normal"), McmcConfig(chains=4, iterations=40, seed=2)
    tracemalloc.start()
    try:
        run_hierarchical(c, m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


@pytest.mark.parametrize("chains", [2, 1])
def test_summary_parameters_equal_summarize_samples_of_each_column(quick_run, chains):
    s = quick_run if chains == 2 else run_hierarchical(small_corpus(), ModelSpec(), McmcConfig(chains=1, iterations=333, seed=6))
    expected = {name: summarize_samples(x) for name, x in s.columns()}
    assert json.dumps(summary_dict(s)["parameters"]) == json.dumps(expected)
    x = s.draws("tau[A0]").ravel()
    plain = [np.mean(x), np.std(x, ddof=1), *(np.quantile(x, q) for q in (0.5, 0.95, 0.99))]
    assert list(expected["tau[A0]"].values()) == [float(v) for v in plain]
