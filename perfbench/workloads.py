"""The three workloads: seeded inputs, one repetition of CLI commands, and
the checks on what those commands wrote.

Each workload's input *shape* (study counts, how many analyses have zero
heterogeneity, which datasets have tiny standard errors) is fixed; the seed
draws the values and the order.  That keeps the amount of work the same from
seed to seed, so run-to-run spread measures the program, not the input size.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Sampler settings: the CLI defaults' 1:4 burn-in:kept ratio, scaled down.
# pipeline_paper keeps 4 x 256 = 1024 predictive draws, just above the 1000
# that `approx`'s direct fits require.
PIPE_CHAINS, PIPE_BURNIN, PIPE_ITERS = 4, 64, 256
CMP_CHAINS, CMP_BURNIN, CMP_ITERS = 4, 10, 40

# Bands for the pipeline_paper fit (40 analyses, tau_j ~ half-normal(0.2)).
# Seeds 1-20 gave scale medians 0.11-0.27 and split-R-hats 0.998-1.10.
SCALE_MEDIAN_BAND = (0.08, 0.45)
SCALE_RHAT_BAND = (0.98, 1.25)

# analyze_batch: posterior medians from the grid against the quadrature
# oracle, on the first ORACLE_CASES datasets (one per prior in PRIORS).
ORACLE_CASES = 5
ORACLE_TOL = 1e-3

#: heterogeneity priors from the paper's table, rotated through by dataset
PRIORS = (
    "half-normal(0.22)",
    "half-t(8.2,0.20)",
    "lomax(9.9,1.5)",
    "log-normal(-2.6,1.7)",
    "half-cauchy(0.10)",
)
MU_PRIOR = "normal(0,2)"
MU_PRIOR_PARAMS = (0.0, 2.0)

PIPE_ANALYSES = 40
PIPE_SIZES = [round(3 + 15 * ((i + 0.5) / PIPE_ANALYSES) ** 1.1) for i in range(PIPE_ANALYSES)]
CMP_ANALYSES = 120
CMP_SIZES = [2, 3, 4] * (CMP_ANALYSES // 3)

BATCH_SIZE = 50
# Datasets with standard errors <= 1e-3 drive the effect grid to its cap.
# Fixed slots (so fixed priors), size and heterogeneity keep their large cost
# the same per seed; with k = 8 their tau grid never needs extending.
BATCH_CAP_SLOTS = (12, 39)
BATCH_CAP_K, BATCH_CAP_TAU = 8, 0.3
BATCH_TYPICAL = BATCH_SIZE - len(BATCH_CAP_SLOTS)
BATCH_SIZES = [round(2 + 28 * ((i + 0.5) / BATCH_TYPICAL) ** 2.5) for i in range(BATCH_TYPICAL)]


def _write_csv(path: Path, rows: list[tuple[str, str, float, float]]) -> None:
    lines = ["analysis_id,study_id,estimate,std_err"]
    lines += [f"{a},{s},{float(y)!r},{float(e)!r}" for a, s, y, e in rows]
    path.write_text("\n".join(lines) + "\n")


def _analysis_rows(rng, aid: str, k: int, tau: float, se_lo: float, se_hi: float):
    mu = rng.normal(0.0, 0.5)
    se = rng.uniform(se_lo, se_hi, k)
    y = rng.normal(mu, np.sqrt(se**2 + tau**2))
    return [(aid, f"s{i + 1:02d}", y[i], se[i]) for i in range(k)]


def _corpus(rng, sizes, taus, se_lo=0.1, se_hi=0.6):
    rows = []
    for j, (k, tau) in enumerate(zip(sizes, taus)):
        rows += _analysis_rows(rng, f"ma{j + 1:03d}", int(k), float(tau), se_lo, se_hi)
    return rows


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """One workload; ``h`` is the harness that runs CLI commands."""

    name = ""

    def __init__(self, h, seed: int):
        self.h = h
        self.seed = seed % 2**32  # the program's seeds must be nonnegative
        self.rng_seed = [self.seed, sum(map(ord, self.name))]

    def rng(self):
        return np.random.default_rng(self.rng_seed)

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def rep(self) -> None:
        raise NotImplementedError

    def check(self) -> dict[str, list[str]]:
        """Problems found in the last repetition's outputs, by output dir."""
        return {}


class PipelinePaper(Workload):
    """validate -> tau-estimates -> fit -> approx -> analyze on a 40-analysis
    corpus with ragged 3-18 studies per analysis (mean about 10)."""

    name = "pipeline_paper"
    N = PIPE_ANALYSES
    SIZES = PIPE_SIZES
    NEW_K = 10

    def generate(self):
        rng = self.rng()
        sizes = rng.permutation(self.SIZES)
        taus = np.abs(rng.normal(0.0, 0.2, self.N))
        _write_csv(self.h.inputs / "corpus.csv", _corpus(rng, sizes, taus))
        # precise enough that the tau grid never needs extending, so the
        # analyze step does the same work (and peaks at the same memory) per seed
        new = _analysis_rows(rng, "new", self.NEW_K, 0.1, 0.05, 0.25)
        _write_csv(self.h.inputs / "new.csv", new)
        # a small corpus for warm-up: same commands, little work
        _write_csv(self.h.inputs / "warm.csv", _corpus(rng, [3, 4, 5], [0.1, 0.2, 0.3]))

    def _sequence(self, corpus: Path, out: Path, chains, burnin, iters, svg=True):
        h, s = self.h, ["--svg"] if svg else []
        h.call("validate", [str(corpus), "--out", str(out / "validate")])
        h.call("tau-estimates", [str(corpus), "--method", "PM", "--out", str(out / "tau")])
        h.call("fit", [str(corpus), "--family", "half-normal", "--seed", str(self.seed),
                       "--chains", str(chains), "--burnin", str(burnin), "--iters", str(iters),
                       "--out", str(out / "fit")] + s)
        h.call("approx", [str(out / "fit"),
                          "--methods", "point:mean,point:q95,mixture,ml,moments",
                          "--fit-families", "half-t,log-normal", "--out", str(out / "approx")] + s)
        priors = _read_json(out / "approx" / "priors.json")["priors"]
        mixture = next(p["text"] for p in priors if p["method"] == "mixture_match")
        h.call("analyze", [str(self.h.inputs / "new.csv"), "--prior", mixture,
                           "--out", str(out / "analyze")] + s)

    def warm_up(self):
        self._sequence(self.h.inputs / "warm.csv", self.h.warm, 4, 2, 256, svg=True)

    def rep(self):
        self._sequence(self.h.inputs / "corpus.csv", self.h.out,
                       PIPE_CHAINS, PIPE_BURNIN, PIPE_ITERS)

    def check(self):
        out, bad = self.h.out, {}
        n_studies = sum(self.SIZES)
        v = _read_json(out / "validate" / "summary.json")
        if (v["analyses"], v["studies"]) != (self.N, n_studies):
            bad["validate"] = [f"validate saw {v['analyses']} analyses, {v['studies']} studies"]
        t = _read_json(out / "tau" / "summary.json")
        if t["summary"]["n"] != self.N or not all(e["tau"] >= 0.0 for e in t["estimates"]):
            bad["tau"] = ["tau-estimates: wrong count or a negative estimate"]
        f = _read_json(out / "fit" / "summary.json")
        med = f["parameters"]["scale"]["median"]
        rhat = f["diagnostics"]["scale"]["rhat"]
        probs = []
        if not SCALE_MEDIAN_BAND[0] <= med <= SCALE_MEDIAN_BAND[1]:
            probs.append(f"posterior median of scale {med} outside {SCALE_MEDIAN_BAND}")
        if not SCALE_RHAT_BAND[0] <= rhat <= SCALE_RHAT_BAND[1]:
            probs.append(f"split-Rhat of scale {rhat} outside {SCALE_RHAT_BAND}")
        if f["kept_iterations"] != PIPE_ITERS or f["chains"] != PIPE_CHAINS:
            probs.append("fit summary has the wrong chain shape")
        if probs:
            bad["fit"] = probs
        a = _read_json(out / "approx" / "priors.json")
        methods = {p["method"] for p in a["priors"]}
        if not {"point_estimate(mean)", "point_estimate(q95)", "mixture_match"} <= methods:
            bad["approx"] = [f"approx produced only {sorted(methods)}"]
        z = _read_json(out / "analyze" / "summary.json")
        vals = [z["mu"]["median"], z["tau"]["median"], *z["mu"]["interval"]]
        if z["k"] != self.NEW_K or not all(math.isfinite(x) for x in vals) or z["tau"]["median"] < 0:
            bad["analyze"] = ["analyze summary has a wrong k or a non-finite median"]
        return bad


class CompareSparse(Workload):
    """DIC comparison of all four families on 120 analyses of 2-4 studies,
    a third of them with no heterogeneity."""

    name = "compare_sparse"
    N = CMP_ANALYSES
    SIZES = CMP_SIZES
    FAMILIES = "half-normal,exp,half-cauchy,log-normal"

    def generate(self):
        rng = self.rng()
        taus = np.abs(rng.normal(0.0, 0.2, self.N))
        taus[: self.N // 3] = 0.0
        order = rng.permutation(self.N)
        rows = _corpus(rng, np.asarray(self.SIZES)[order], taus[order])
        _write_csv(self.h.inputs / "corpus.csv", rows)
        _write_csv(self.h.inputs / "warm.csv", _corpus(rng, [2, 3, 4], [0.0, 0.1, 0.2]))

    def _compare(self, corpus: Path, out: Path, chains, burnin, iters):
        self.h.call("compare", [str(corpus), "--families", self.FAMILIES,
                                "--seed", str(self.seed), "--chains", str(chains),
                                "--burnin", str(burnin), "--iters", str(iters),
                                "--out", str(out / "compare")])

    def warm_up(self):
        self._compare(self.h.inputs / "warm.csv", self.h.warm, 2, 4, 16)

    def rep(self):
        self._compare(self.h.inputs / "corpus.csv", self.h.out, CMP_CHAINS, CMP_BURNIN, CMP_ITERS)

    def check(self):
        models = _read_json(self.h.out / "compare" / "dic.json")["models"]
        probs = []
        if sorted(m["model"] for m in models) != sorted(self.FAMILIES.split(",")):
            probs.append(f"dic.json rows {[m['model'] for m in models]}")
        for m in models:
            if "error" in m:
                probs.append(f"{m['model']}: {m['error']}")
            elif not (math.isfinite(m["dic"]) and 0.0 < m["p_d"] <= 2 * self.N):
                probs.append(f"{m['model']}: DIC {m['dic']} p_D {m['p_d']} (need 0 < p_D <= {2 * self.N})")
        return {"compare": probs} if probs else {}


class AnalyzeBatch(Workload):
    """`analyze` over 50 single meta-analyses, k = 2-30 skewed small, priors
    rotating through the paper's table, half with a normal effect prior."""

    name = "analyze_batch"
    SIZES = BATCH_SIZES

    @staticmethod
    def slot(i: int) -> tuple[str, bool]:
        """(prior, whether the effect prior is given) of dataset ``i``."""
        return PRIORS[i % len(PRIORS)], i % 2 == 1

    def generate(self):
        rng = self.rng()
        sizes = iter(rng.permutation(self.SIZES))
        self.datasets = []
        for i in range(BATCH_SIZE):
            if i in BATCH_CAP_SLOTS:
                rows = _analysis_rows(rng, f"d{i:02d}", BATCH_CAP_K, BATCH_CAP_TAU, 5e-5, 2e-4)
            else:
                rows = _analysis_rows(rng, f"d{i:02d}", int(next(sizes)),
                                      abs(rng.normal(0.0, 0.2)), 0.1, 0.6)
            path = self.h.inputs / f"d{i:02d}.csv"
            _write_csv(path, rows)
            self.datasets.append((path, rows))

    def _analyze(self, i: int, out: Path):
        prior, with_mu = self.slot(i)
        argv = [str(self.datasets[i][0]), "--prior", prior, "--out", str(out / f"d{i:02d}")]
        if with_mu:
            argv += ["--mu-prior", MU_PRIOR]
        self.h.call("analyze", argv)

    def warm_up(self):
        for i in range(2):
            self._analyze(i, self.h.warm)

    def rep(self):
        for i in range(BATCH_SIZE):
            self._analyze(i, self.h.out)

    def check(self):
        bad = {}
        for i, (_, rows) in enumerate(self.datasets):
            z = _read_json(self.h.out / f"d{i:02d}" / "summary.json")
            vals = [z["mu"]["median"], z["tau"]["median"], *z["mu"]["interval"], *z["tau"]["interval"]]
            if z["k"] != len(rows) or not all(math.isfinite(x) for x in vals):
                bad[f"d{i:02d}"] = ["analyze summary has a wrong k or a non-finite value"]
        return bad

    def check_oracle(self) -> dict[str, list[str]]:
        """Grid medians against the quadrature oracle (run once per run)."""
        from oracle import posterior_medians

        bad = {}
        for i in range(ORACLE_CASES):
            prior, with_mu = self.slot(i)
            rows = self.datasets[i][1]
            tau_q, mu_q = posterior_medians([r[2] for r in rows], [r[3] for r in rows], prior,
                                            MU_PRIOR_PARAMS if with_mu else None)
            z = _read_json(self.h.out / f"d{i:02d}" / "summary.json")
            for what, grid, quad in (("tau", z["tau"]["median"], tau_q), ("mu", z["mu"]["median"], mu_q)):
                if abs(grid - quad) > ORACLE_TOL:
                    bad.setdefault(f"d{i:02d}", []).append(
                        f"{what} median {grid} vs quadrature {quad} (tolerance {ORACLE_TOL})")
        return bad


WORKLOADS = {w.name: w for w in (PipelinePaper, CompareSparse, AnalyzeBatch)}
