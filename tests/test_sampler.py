import hashlib
import json
import math

import numpy as np
import pytest

from hetprior.data import MetaAnalysisCollection, StudyRecord
from hetprior.dist import HalfNormal, Normal, Uniform
from hetprior.sampler import (
    BACKEND,
    HET_FAMILIES,
    SLICE_COUNTERS,
    ConfigError,
    McmcConfig,
    ModelSpec,
    PosteriorSamples,
    diagnostics,
    effective_sample_size,
    run_hierarchical,
    samples_from_csv,
    samples_to_csv,
    split_rhat,
    summarize_samples,
    summary_dict,
)
from hetprior.sampler import _slice

#: sha256 of scale, mu, tau, tau* and deviance draws of ``quick_run``, taken
#: with numpy 2.4.6 and scipy 1.17.1 (Python 3.11.7) on an x86-64 CPU whose
#: numpy dispatches to AVX512 (SPR) kernels
GOLDEN_DIGEST = "d494a4cf772574e2804a8882042ec3e0678dcb91a58444410a341ef770da7bc0"


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
    """The sampler's vectorized log density and quantile restate the
    scalar ones of ``dist``; both must describe the same family."""
    fam = HET_FAMILIES[token]
    hyper = _RECORD_HYPER[: len(fam.hyper_names)]
    x = np.linspace(0.0, 20.0, 401)[1:]
    p = np.linspace(0.0, 1.0, 201)[1:-1]
    d = fam.distribution(*hyper)
    assert d.token == token
    np.testing.assert_allclose(fam.log_density(x, *hyper), d.log_density(x), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fam.quantile(p, *hyper), d.quantile(p), rtol=1e-12, atol=1e-12)
    # per-chain (chains, 1) hyperparameters broadcast against the values
    per_chain = [np.array([[0.5 * h], [h], [2.0 * h]]) for h in hyper]
    dens = fam.log_density(x, *per_chain)
    quant = fam.quantile(p, *per_chain)
    assert dens.shape == (3, x.size) and quant.shape == (3, p.size)
    for c in range(3):
        dc = fam.distribution(*(float(h[c, 0]) for h in per_chain))
        np.testing.assert_allclose(dens[c], dc.log_density(x), rtol=1e-12, atol=1e-12)
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


def test_chains_stuck_apart_are_not_reported_as_mixed():
    stuck = np.stack([np.full(1000, 0.25), np.full(1000, 0.5)])
    assert split_rhat(stuck) == math.inf
    # every lag is fully correlated: 2000 draws over 999 autocorrelation time
    assert effective_sample_size(stuck) == pytest.approx(2000 / 999, rel=1e-12)
    assert effective_sample_size(np.full((2, 1000), 0.1)) == 2000.0


def test_diagnostics_warn_on_infinite_rhat_and_summary_holds_none():
    rng = np.random.default_rng(3)
    ids = ("a", "b")
    table = np.abs(rng.normal(0.3, 0.1, (2, 1000, 7)))  # scale, mu[a], mu[b], tau[a], tau[b], ...
    table[0, :, 0], table[1, :, 0] = 0.25, 0.5
    s = PosteriorSamples(family="half-normal", table=table, analysis_ids=ids)
    entries, warns = diagnostics(s)
    assert entries["scale"]["rhat"] is None
    assert "scale: split-Rhat infinite: every half-chain is constant, the halves differ" in warns
    assert entries["scale"]["ess"] < 400
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
        assert set(entries[name]) == {"rhat", "ess"}
        assert entries[name]["rhat"] is not None and entries[name]["rhat"] < 1.05
        assert entries[name]["ess"] > 50


def test_diagnostics_single_chain_rhat_from_its_halves():
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=1, burn_in=100, iterations=300, seed=4))
    scale = diagnostics(s)[0]["scale"]
    assert math.isfinite(scale["rhat"]) and scale["rhat"] < 1.05
    assert scale["ess"] > 0


def test_diagnostics_flag_one_drifting_chain():
    rng = np.random.default_rng(6)
    table = np.abs(rng.normal(0.3, 0.1, (1, 1000, 5)))  # scale, mu[a], tau[a], tau_star, deviance
    table[0, :, 0] = np.linspace(0.2, 0.6, 1000) + rng.normal(0.0, 0.02, 1000)
    entries, warns = diagnostics(PosteriorSamples(family="half-normal", table=table, analysis_ids=("a",)))
    assert entries["scale"]["rhat"] > 1.01
    assert f"scale: split-Rhat {entries['scale']['rhat']:.3f} > 1.01" in warns


def test_diagnostics_warnings_trigger():
    # tiny run: ESS < 400 must be flagged
    s = run_hierarchical(small_corpus(), ModelSpec(),
                         McmcConfig(chains=2, burn_in=50, iterations=60, seed=8))
    _, warns = diagnostics(s)
    assert any(w.startswith("scale: effective sample size") for w in warns)


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


def test_initial_state_floors_undefined_dl_start():
    from hetprior.sampler import _flatten, _initial_state

    c = MetaAnalysisCollection(
        (
            ("tight", (StudyRecord("tight", "a", 0.1, 1e-10, 0), StudyRecord("tight", "b", 0.3, 1.0, 1))),
            ("solo", (StudyRecord("solo", "a", 0.2, 0.4, 2),)),
        )
    )
    _, tau0, _ = _initial_state(*_flatten(c), ModelSpec())
    assert tau0.tolist() == [0.01, 0.01]


def test_summary_dict_structure(quick_run):
    doc = summary_dict(quick_run)
    assert doc["family"] == "half-normal"
    assert doc["backend"] == BACKEND
    assert set(doc["parameters"]["scale"]) == {"mean", "sd", "median", "q95", "q99"}
    assert "scale" in doc["diagnostics"]
    assert set(doc["slice_sampler"]) == {"tau", "scale"}
    tau_counts = doc["slice_sampler"]["tau"]
    assert set(tau_counts) == set(SLICE_COUNTERS)
    assert tau_counts["updates"] == [700 * 6, 700 * 6]
    assert all(e >= 2 * u for e, u in zip(tau_counts["log_posterior_evals"], tau_counts["updates"]))
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


def _rngs(n, seed=0):
    return [np.random.Generator(np.random.Philox(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def test_slice_block_samples_its_target():
    # the tau block and a hyperparameter take the same routine, as a
    # (chains, analyses) and a (chains, 1) array; run both on known targets
    rngs = _rngs(2)
    counts = np.zeros((2, len(SLICE_COUNTERS)), dtype=np.int64)
    target = HalfNormal(0.7)
    x = np.full((2, 50), 0.5)
    draws = []
    for _ in range(300):
        x = _slice(x, target.log_density, 0.0, math.inf, rngs, counts)
        draws.append(x)
    draws = np.concatenate(draws[50:]).ravel()
    for p in (0.25, 0.5, 0.9):
        assert np.quantile(draws, p) == pytest.approx(target.quantile(p), rel=0.03)
    assert counts[:, 0].tolist() == [300 * 50, 300 * 50]
    assert np.all(counts[:, 1] > 2 * counts[:, 0])

    bounded = Uniform(0.5, 2.0)
    v = np.full((2, 1), 1.0)
    vals = []
    for _ in range(4000):
        v = _slice(v, bounded.log_density, 0.5, 2.0, rngs, counts)
        vals.append(v)
    vals = np.array(vals)
    assert vals.min() >= 0.5 and vals.max() <= 2.0
    assert vals.mean() == pytest.approx(1.25, abs=0.03)


def test_slice_caps_are_counted():
    rngs = _rngs(2, seed=1)
    flat = np.zeros((2, len(SLICE_COUNTERS)), dtype=np.int64)
    x0 = np.full((2, 3), 1.0)
    # a flat target on [0, inf): the right end never leaves the slice
    _slice(x0, np.zeros_like, 0.0, math.inf, rngs, flat)
    caps = dict(zip(SLICE_COUNTERS, flat.T.tolist()))
    assert caps["stepout_cap_hits"] == [3, 3]
    assert caps["shrink_cap_hits"] == [0, 0]

    point = np.zeros((2, len(SLICE_COUNTERS)), dtype=np.int64)
    calls = []

    def only_x0(x):
        # a target that rejects every point after x0 itself, x0 included:
        # shrinking never ends before the cap
        calls.append(x)
        return np.zeros_like(x) if len(calls) == 1 else np.full_like(x, -np.inf)

    x = _slice(x0, only_x0, 0.0, math.inf, rngs, point)
    np.testing.assert_array_equal(x, x0)
    caps = dict(zip(SLICE_COUNTERS, point.T.tolist()))
    assert caps["shrink_cap_hits"] == [3, 3]
    # per element: x0, the right end, perhaps the left end, 1000 shrinks
    assert all(3 * 1002 <= n <= 3 * 1003 for n in caps["log_posterior_evals"])


def test_cap_hits_reach_summary_warnings():
    # log-normal taus pinned at median 1000 and shape 5, with studies too
    # imprecise to constrain them: the slice is far wider than 50 initial
    # widths, so stepping out stops at the cap
    recs = tuple(StudyRecord("A", f"S{i}", 0.0, 1e6, i) for i in range(2))
    c = MetaAnalysisCollection((("A", recs),))
    m = ModelSpec(
        het_family="log-normal",
        scale_hyperprior=Uniform(1000.0, 1000.0 * (1 + 1e-9)),
        shape_hyperprior=Uniform(5.0, 5.0 * (1 + 1e-9)),
    )
    s = run_hierarchical(c, m, McmcConfig(chains=2, burn_in=10, iterations=40, seed=1))
    doc = summary_dict(s)
    hits = doc["slice_sampler"]["tau"]["stepout_cap_hits"]
    assert sum(hits) > 0
    assert any(w.startswith(f"tau: {sum(hits)} slice step-outs") for w in doc["warnings"])


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
