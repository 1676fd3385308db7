"""Acceptance gate: eight end-to-end checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Check 4
needs the published 40-meta-analysis log-OR corpus; point the environment
variable ``HETPRIOR_CORPUS`` at the CSV (columns
``analysis_id,study_id,estimate,std_err[,seq]``, seq = publication order) or
drop it at ``data/corpus.csv``.  Without it that check is skipped and the
remaining checks gate acceptance.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hetprior.cli import main
from hetprior.data import parse_collection, subset_recent
from hetprior.dic import compare_models
from hetprior.dist import (
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    LogNormal,
    Lomax,
    Normal,
    Uniform,
    half_t_moment_fit,
    scale_mixture_half_t,
)
from hetprior.metaanalysis import (
    SingleMeta,
    bayes_ma,
    ci_suite,
    dl_estimate,
    pm_estimate,
    tau_estimate_collection,
    tau_marginal,
)
from hetprior.sampler import (
    McmcConfig,
    ModelSpec,
    run_hierarchical,
    split_rhat,
    summarize_samples,
)

T_1_975 = 12.706204736432095
Z_975 = 1.959963984540054


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- 1: analytic approximation tables ------------------------------------------------


def test_acceptance_1_analytic_tables():
    expected = {
        HalfNormal(0.22): (0.18, 0.13, 0.15, 0.43, 0.57),
        HalfStudentT(8.2, 0.20): (0.18, 0.15, 0.14, 0.46, 0.67),
        Lomax(9.9, 1.5): (0.17, 0.19, 0.11, 0.53, 0.89),
        LogNormal(-2.6, 1.7): (0.32, 1.30, 0.07, 1.22, 3.88),
        HalfCauchy(0.10): (None, None, 0.10, 1.27, 6.37),
    }
    ok = True
    for dist, row in expected.items():
        m = dist.moments()
        got = (
            m.mean,
            m.sd,
            dist.quantile(0.50),
            dist.quantile(0.95),
            dist.quantile(0.99),
        )
        for g, e in zip(got, row):
            if e is None:
                ok = ok and g is None
            else:
                ok = ok and g is not None and round(g, 2) == pytest.approx(e, abs=1e-9)
    _report("1 analytic tables (2 d.p.)", ok)


# -- 2: moment fit worked example ----------------------------------------------------


def test_acceptance_2_half_t_moment_fit():
    fit = half_t_moment_fit(0.5, 0.4)
    unit_mean = HalfStudentT(13.6, 1.0).moments().mean
    ok = (
        fit.df == pytest.approx(13.6, abs=0.1)
        and fit.scale == pytest.approx(0.59, abs=0.01)
        and unit_mean == pytest.approx(0.85, abs=0.005)
    )
    _report("2 half-t moment fit (0.5, 0.4)", ok)


# -- 3: scale-mixture match ----------------------------------------------------------


def test_acceptance_3_scale_mixture():
    fit = scale_mixture_half_t(0.22, 0.064)
    ok = fit.df == pytest.approx(8.2, abs=0.2) and fit.scale == pytest.approx(0.20, abs=0.01)
    _report("3 scale mixture half-t (0.22, 0.064)", ok)


# -- 4: published-corpus reproduction ------------------------------------------------


def _find_corpus():
    env = os.environ.get("HETPRIOR_CORPUS")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "corpus.csv")
    for p in candidates:
        if p.is_file():
            return p
    return None


@pytest.mark.slow
def test_acceptance_4_corpus_reproduction():
    path = _find_corpus()
    if path is None:
        print("ACCEPTANCE 4 corpus reproduction: SKIP (corpus not present; "
              "set HETPRIOR_CORPUS)")
        pytest.skip("published corpus not available")
    c = parse_collection(path.read_text())
    cfg = McmcConfig(chains=4, burn_in=5000, iterations=20000, seed=20)
    s = run_hierarchical(c, ModelSpec(het_family="half-normal"), cfg)
    hyper = summarize_samples(s.hyper["scale"])
    pred = summarize_samples(s.predictive)
    ok = (
        hyper["mean"] == pytest.approx(0.22, abs=0.02)
        and hyper["sd"] == pytest.approx(0.064, abs=0.01)
        and hyper["median"] == pytest.approx(0.21, abs=0.02)
        and hyper["q95"] == pytest.approx(0.33, abs=0.03)
        and pred["mean"] == pytest.approx(0.17, abs=0.02)
        and pred["q95"] == pytest.approx(0.46, abs=0.04)
        and pred["q99"] == pytest.approx(0.66, abs=0.08)
    )

    rows = compare_models(
        c, ("half-normal", "exp", "log-normal", "half-cauchy"), cfg=cfg
    )
    order = [r.family for r in rows if r.error is None]
    dics = {r.family: r.dic.dic for r in rows if r.error is None}
    published = {"half-normal": 163.8, "exp": 167.7, "log-normal": 178.0, "half-cauchy": 212.8}
    ok = ok and order == ["half-normal", "exp", "log-normal", "half-cauchy"]
    ok = ok and all(abs(dics[f] - v) <= 5.0 for f, v in published.items())

    dl = tau_estimate_collection(c, "DL").summary()
    ok = ok and dl["mean"] == pytest.approx(0.21, abs=0.01) and dl["median"] == 0.0

    stats = []
    for n in (40, 20, 10, 5):
        sub = subset_recent(c, n)
        ss = run_hierarchical(sub, ModelSpec(het_family="half-normal"), cfg)
        p = summarize_samples(ss.predictive)
        stats.append((p["mean"], p["q95"], p["q99"]))
    for prev, nxt in zip(stats, stats[1:]):
        ok = ok and all(b >= a - 1e-9 for a, b in zip(prev, nxt))
    m5, q95_5, q99_5 = stats[-1]
    ok = ok and abs(m5 - 0.65) <= 0.25 * 0.65
    ok = ok and abs(q95_5 - 2.14) <= 0.25 * 2.14
    ok = ok and abs(q99_5 - 4.28) <= 0.25 * 4.28
    _report("4 corpus reproduction", ok)


# -- 5: sampler calibration -----------------------------------------------------------


@pytest.mark.slow
def test_acceptance_5_sampler_calibration():
    s_true = 0.2
    n_corpora = 50
    covered = 0
    max_rhat = 0.0
    for rep in range(n_corpora):
        rng = np.random.default_rng(1000 + rep)
        rows = ["analysis_id,study_id,estimate,std_err"]
        for j in range(30):
            tau_j = abs(rng.normal(0.0, s_true))
            mu_j = rng.normal(0.0, 0.5)
            for i in range(10):
                se = rng.uniform(0.1, 0.4)
                y = rng.normal(mu_j, np.hypot(se, tau_j))
                rows.append(f"m{j},s{i},{y!r},{se!r}")
        c = parse_collection("\n".join(rows) + "\n")
        cfg = McmcConfig(chains=2, burn_in=500, iterations=2500, seed=rep)
        s = run_hierarchical(c, ModelSpec(het_family="half-normal"), cfg)
        draws = s.hyper["scale"]
        lo, hi = np.quantile(draws, [0.05, 0.95])
        covered += int(lo <= s_true <= hi)
        for name in s.parameter_names():
            max_rhat = max(max_rhat, split_rhat(s.draws(name)))
    coverage = covered / n_corpora
    ok = 0.80 <= coverage <= 1.00 and max_rhat <= 1.02
    print(f"  (coverage {coverage:.2f}, max split-rhat {max_rhat:.4f})")
    _report("5 sampler calibration", ok)


# -- 6: grid vs MCMC oracle equivalence ----------------------------------------------


def _pinned_uniform(scale: float) -> Uniform:
    return Uniform(scale * (1 - 1e-9), scale * (1 + 1e-9))


@pytest.mark.slow
def test_acceptance_6_oracle_equivalence():
    datasets = [
        ((0.0, 0.0), (1.0, 1.0), 0.25),
        ((-0.35, 0.10, -0.62, -0.11), (0.22, 0.30, 0.41, 0.26), 0.20),
        ((0.5, 0.1, 0.9), (0.3, 0.25, 0.5), 0.40),
        ((-0.2, 0.3, 0.0, 0.6, -0.5), (0.2, 0.2, 0.3, 0.4, 0.3), 0.15),
        ((1.2, 0.8), (0.4, 0.35), 0.30),
    ]
    ok = True
    for idx, (y, sig, scale) in enumerate(datasets):
        sm = SingleMeta(y=y, sigma=sig)
        res = bayes_ma(sm, HalfNormal(scale), mu_prior=Normal(0.0, 100.0))
        rows = ["analysis_id,study_id,estimate,std_err"] + [
            f"a,s{i},{yi!r},{si!r}" for i, (yi, si) in enumerate(zip(y, sig))
        ]
        c = parse_collection("\n".join(rows) + "\n")
        m = ModelSpec(het_family="half-normal", scale_hyperprior=_pinned_uniform(scale))
        cfg = McmcConfig(chains=2, burn_in=1000, iterations=200000, seed=100 + idx)
        s = run_hierarchical(c, m, cfg)
        mu_mc = float(np.median(s.mu))
        tau_mc = float(np.median(s.tau))
        ok = ok and abs(res.mu_median - mu_mc) < 0.01
        ok = ok and abs(res.tau_median - tau_mc) < 0.01

    prior = HalfStudentT(8.2, 0.20)
    sm1 = SingleMeta(y=(0.3,), sigma=(0.25,))
    dens = tau_marginal(sm1, prior)
    ok = ok and float(np.max(np.abs(dens.density - prior.density(dens.grid)))) < 1e-3
    _report("6 grid vs MCMC oracle", ok)


# -- 7: frequentist suite --------------------------------------------------------------


def test_acceptance_7_frequentist_suite():
    sm = SingleMeta(y=(0.0, 2.0), sigma=(1.0, 1.0))
    tau_dl = dl_estimate(sm).tau
    tau_pm = pm_estimate(sm)
    normal, hksj, mkh = ci_suite(sm, tau_dl)
    ok = (
        tau_dl == pytest.approx(1.0, abs=1e-12)
        and tau_pm == pytest.approx(1.0, abs=1e-8)
        and normal.estimate == pytest.approx(1.0)
        and normal.lo == pytest.approx(1.0 - Z_975, abs=1e-9)
        and normal.hi == pytest.approx(1.0 + Z_975, abs=1e-9)
        and hksj.lo == pytest.approx(1.0 - T_1_975, abs=1e-9)
        and hksj.hi == pytest.approx(1.0 + T_1_975, abs=1e-9)
        and mkh.lo == pytest.approx(hksj.lo)
        and mkh.hi == pytest.approx(hksj.hi)
    )

    rng = np.random.default_rng(17)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        y = rng.normal(0.0, 1.0, k)
        sig = rng.uniform(0.1, 1.0, k)
        smr = SingleMeta(y=tuple(y), sigma=tuple(sig))
        n_ci, _, m_ci = ci_suite(smr, dl_estimate(smr).tau)
        if (m_ci.hi - m_ci.lo) < (n_ci.hi - n_ci.lo) - 1e-12:
            ok = False
            break
    _report("7 frequentist suite", ok)


# -- 8: byte-identical reproduction ----------------------------------------------------


def test_acceptance_8_reproducibility(tmp_path):
    corpus = tmp_path / "corpus.csv"
    rng = np.random.default_rng(2)
    rows = ["analysis_id,study_id,estimate,std_err"]
    for j in range(4):
        for i in range(4):
            rows.append(f"a{j},s{i},{rng.normal(0, 0.4):.4f},{rng.uniform(0.2, 0.5):.4f}")
    corpus.write_text("\n".join(rows) + "\n")

    ok = True
    fit_args = ["fit", str(corpus), "--seed", "21", "--chains", "2",
                "--iters", "500", "--burnin", "150"]
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    ok = ok and main(fit_args + ["--out", str(out1)]) == 0
    ok = ok and main(fit_args + ["--out", str(out2)]) == 0
    for name in ("manifest.json", "summary.json", "samples.npy"):
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ok = ok and json.loads((out1 / "manifest.json").read_text()) == json.loads(
        (out2 / "manifest.json").read_text()
    )

    an_args = ["analyze", str(corpus), "--analysis", "a1", "--prior", "half-t(8.2,0.20)"]
    out3, out4 = tmp_path / "a1", tmp_path / "a2"
    ok = ok and main(an_args + ["--out", str(out3)]) == 0
    ok = ok and main(an_args + ["--out", str(out4)]) == 0
    for name in ("manifest.json", "summary.json", "forest.csv"):
        ok = ok and (out3 / name).read_bytes() == (out4 / name).read_bytes()
    _report("8 reproducibility", ok)
