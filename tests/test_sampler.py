import hashlib
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from hetprior.data import MetaAnalysisCollection, StudyRecord
from hetprior.dist import HalfNormal, Normal, Uniform
from hetprior.sampler import (
    BACKEND,
    ConfigError,
    McmcConfig,
    ModelSpec,
    PosteriorSamples,
    diagnostics,
    draws_from_csv,
    effective_sample_size,
    run_hierarchical,
    samples_to_csv,
    split_rhat,
    summarize_samples,
    summary_dict,
)


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


def test_split_rhat_detects_within_chain_drift():
    # trend inside each chain: the split halves disagree
    trend = np.tile(np.linspace(0.0, 5.0, 1000), (2, 1))
    assert split_rhat(trend + np.random.default_rng(1).normal(0, 0.1, (2, 1000))) > 1.1


def test_effective_sample_size_iid_and_correlated():
    rng = np.random.default_rng(42)
    iid = rng.standard_normal((2, 5000))
    ess = effective_sample_size(iid)
    assert 0.75 * 10000 <= ess <= 10000
    # AR(1) with strong positive correlation has much smaller ESS
    phi = 0.95
    ar = np.empty((2, 5000))
    z = rng.standard_normal((2, 5000))
    ar[:, 0] = z[:, 0]
    for t in range(1, 5000):
        ar[:, t] = phi * ar[:, t - 1] + math.sqrt(1 - phi**2) * z[:, t]
    ess_ar = effective_sample_size(ar)
    # theoretical factor (1-phi)/(1+phi) ~ 1/39
    assert ess_ar < 0.1 * 10000


def test_diagnostics_report(quick_run):
    rep = diagnostics(quick_run, ["scale", "tau_star", "deviance"])
    for p in rep.parameters:
        assert p.rhat is not None and p.rhat < 1.05
        assert p.ess > 50
    assert rep["scale"].name == "scale"
    with pytest.raises(KeyError):
        rep["nope"]


def test_diagnostics_single_chain_rhat_undefined():
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=1, burn_in=100, iterations=300, seed=4))
    rep = diagnostics(s, ["scale"])
    assert rep.parameters[0].rhat is None
    assert rep.parameters[0].ess > 0


def test_diagnostics_warnings_trigger():
    # tiny run: ESS < 400 must be flagged
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=2, burn_in=50, iterations=60, seed=8))
    rep = diagnostics(s, ["scale"])
    assert any("effective sample size" in w for w in rep.warnings)


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
    assert text.splitlines()[0] == "chain,iter,parameter,value"
    parsed = draws_from_csv(text)
    for name in quick_run.parameter_names():
        np.testing.assert_array_equal(parsed[name], quick_run.draws(name))


def _draw_csv_lines():
    s = run_hierarchical(small_corpus(), ModelSpec(), McmcConfig(chains=2, burn_in=20, iterations=30, seed=4))
    return samples_to_csv(s).splitlines(keepends=True)


def test_draws_from_csv_rejects_file_cut_at_line_boundary():
    lines = _draw_csv_lines()
    with pytest.raises(ValueError, match=r"chain 1, iter 29, parameter 'deviance'"):
        draws_from_csv("".join(lines[:-1]))


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda row: row.rsplit(",", 1)[0] + "\n", "line 6: expected 4 fields"),
        (lambda row: "-1" + row[row.index(","):], "line 6: negative chain or iter"),
    ],
    ids=["ragged", "negative-chain"],
)
def test_draws_from_csv_rejects_malformed_row(damage, message):
    lines = _draw_csv_lines()
    lines[5] = damage(lines[5])
    with pytest.raises(ValueError, match=message):
        draws_from_csv("".join(lines))


def test_initial_state_floors_undefined_dl_start():
    from hetprior.sampler import _flatten, _initial_state

    c = MetaAnalysisCollection(
        (
            ("tight", (StudyRecord("tight", "a", 0.1, 1e-10, 0), StudyRecord("tight", "b", 0.3, 1.0, 1))),
            ("solo", (StudyRecord("solo", "a", 0.2, 0.4, 2),)),
        )
    )
    _, tau0, _, _ = _initial_state(*_flatten(c), ModelSpec())
    assert tau0.tolist() == [0.01, 0.01]


def test_summary_dict_structure(quick_run):
    doc = summary_dict(quick_run)
    assert doc["family"] == "half-normal"
    assert doc["backend"] == BACKEND
    assert set(doc["parameters"]["scale"]) == {"mean", "sd", "median", "q95", "q99"}
    assert "scale" in doc["diagnostics"]


def test_posterior_samples_invariant_rejects_negative_tau(quick_run):
    bad_tau = quick_run.tau.copy()
    bad_tau[0, 0, 0] = -0.1
    with pytest.raises(ValueError):
        PosteriorSamples(
            family=quick_run.family,
            hyper_names=quick_run.hyper_names,
            hyper=quick_run.hyper,
            mu=quick_run.mu,
            tau=bad_tau,
            predictive=quick_run.predictive,
            deviance=quick_run.deviance,
            analysis_ids=quick_run.analysis_ids,
            model=quick_run.model,
            config=quick_run.config,
        )


_SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from hetprior.data import MetaAnalysisCollection, StudyRecord
    from hetprior.sampler import ModelSpec, McmcConfig, run_hierarchical, BACKEND

    rng = np.random.default_rng(5)
    analyses = []
    for j in range(6):
        recs = tuple(
            StudyRecord(f"A{j}", f"S{i}", float(rng.normal(0.0, 0.4)), 0.15, j * 4 + i)
            for i in range(4)
        )
        analyses.append((f"A{j}", recs))
    c = MetaAnalysisCollection(tuple(analyses))
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=200, iterations=500, seed=11))
    h = hashlib.sha256()
    h.update(s.draws("scale").tobytes())
    h.update(s.mu.tobytes())
    h.update(s.tau.tobytes())
    h.update(s.predictive.tobytes())
    h.update(s.deviance.tobytes())
    print(BACKEND, h.hexdigest())
    """
)


def test_backends_bit_identical(quick_run):
    """The pure-python path must reproduce the default path bit-for-bit."""
    h = hashlib.sha256()
    h.update(quick_run.draws("scale").tobytes())
    h.update(quick_run.mu.tobytes())
    h.update(quick_run.tau.tobytes())
    h.update(quick_run.predictive.tobytes())
    h.update(quick_run.deviance.tobytes())
    here_digest = h.hexdigest()

    env = dict(os.environ)
    env["HETPRIOR_NO_NUMBA"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    backend, their_digest = proc.stdout.split()
    assert backend == "python"
    assert their_digest == here_digest
