"""MCMC for the hierarchical heterogeneity model.

The model: study estimates y_ij are normal around analysis effects mu_j
with variance sigma_ij^2 + tau_j^2; each analysis has its own
heterogeneity tau_j drawn from a shared parametric family (half-normal,
exponential, half-Cauchy or log-normal) whose hyperparameters get uniform
hyperpriors; mu_j have a common normal prior. Each iteration draws every
mu_j from its exact conjugate normal full conditional, slice-samples every
tau_j and the hyperparameter(s), then draws one predictive heterogeneity
value tau* from the family at the current hyperparameters and records the
deviance.

Chains use independent generators spawned from the master seed, so
results are reproducible bit-for-bit and adding chains never perturbs
existing ones.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import BACKEND  # noqa: F401  (re-exported: active kernel path)
from .data import MetaAnalysisCollection
from .dist import (
    Distribution,
    Exponential,
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    LogNormal,
    Uniform,
)

__all__ = [
    "BACKEND",
    "ModelSpec",
    "McmcConfig",
    "PosteriorSamples",
    "ConfigError",
    "InitializationError",
    "run_hierarchical",
    "diagnostics",
    "DiagnosticsReport",
    "ParameterDiagnostics",
    "split_rhat",
    "effective_sample_size",
    "summarize_samples",
    "samples_to_csv",
    "draws_from_csv",
    "samples_from_csv",
    "summary_dict",
    "HET_FAMILIES",
]

#: heterogeneity families accepted by ModelSpec, keyed by canonical token
HET_FAMILIES = {
    "half-normal": _kernels.FAM_HALF_NORMAL,
    "exp": _kernels.FAM_EXP,
    "half-cauchy": _kernels.FAM_HALF_CAUCHY,
    "log-normal": _kernels.FAM_LOG_NORMAL,
}


class ConfigError(ValueError):
    """Model or hyperprior configuration outside the supported space."""


class InitializationError(RuntimeError):
    """The log-posterior is not finite at the initial state."""


def _hyper_code(prior: Distribution) -> tuple[int, float, float, float, float]:
    """Map a hyperprior to (kernel code, param a, param b, support lo, hi)."""
    if isinstance(prior, Uniform):
        if prior.lo < 0.0:
            raise ConfigError(
                f"hyperprior {prior} allows negative values; hyperparameters are scales (>= 0)"
            )
        return (_kernels.HP_UNIFORM, prior.lo, prior.hi, prior.lo, prior.hi)
    if isinstance(prior, HalfNormal):
        return (_kernels.HP_HALF_NORMAL, prior.scale, 0.0, 0.0, math.inf)
    if isinstance(prior, Exponential):
        return (_kernels.HP_EXP, prior.scale, 0.0, 0.0, math.inf)
    if isinstance(prior, HalfCauchy):
        return (_kernels.HP_HALF_CAUCHY, prior.scale, 0.0, 0.0, math.inf)
    if isinstance(prior, LogNormal):
        return (_kernels.HP_LOG_NORMAL, prior.mu, prior.sigma, 0.0, math.inf)
    if isinstance(prior, HalfStudentT):
        return (_kernels.HP_HALF_T, prior.df, prior.scale, 0.0, math.inf)
    raise ConfigError(f"unsupported hyperprior family: {prior}")


@dataclass(frozen=True)
class ModelSpec:
    """Heterogeneity family plus its hyperpriors and the effect prior.

    ``het_family`` is one of ``half-normal``, ``exp``, ``half-cauchy``,
    ``log-normal``. The family's scale hyperparameter (the log-normal's
    median scale) gets ``scale_hyperprior``; the log-normal's shape gets
    ``shape_hyperprior``. Analysis effects mu_j share a
    Normal(effect_prior_mean, effect_prior_sd^2) prior.
    """

    het_family: str = "half-normal"
    scale_hyperprior: Distribution = Uniform(0.0, 10.0)
    shape_hyperprior: Distribution = Uniform(0.0, 5.0)
    effect_prior_mean: float = 0.0
    effect_prior_sd: float = 100.0

    def __post_init__(self):
        if self.het_family not in HET_FAMILIES:
            raise ConfigError(
                f"unknown heterogeneity family {self.het_family!r}; "
                f"choose from {sorted(HET_FAMILIES)}"
            )
        if not (math.isfinite(self.effect_prior_sd) and self.effect_prior_sd > 0.0):
            raise ConfigError(f"effect_prior_sd must be positive, got {self.effect_prior_sd!r}")
        if not math.isfinite(self.effect_prior_mean):
            raise ConfigError(f"effect_prior_mean must be finite, got {self.effect_prior_mean!r}")
        for prior in self.hyperpriors.values():
            _hyper_code(prior)

    @property
    def hyperpriors(self) -> dict[str, Distribution]:
        """The family's hyperparameters, in kernel order, with their priors."""
        if self.het_family == "log-normal":
            return {"theta": self.scale_hyperprior, "sigma": self.shape_hyperprior}
        return {"scale": self.scale_hyperprior}

    @property
    def hyper_names(self) -> tuple[str, ...]:
        return tuple(self.hyperpriors)


@dataclass(frozen=True)
class McmcConfig:
    chains: int = 4
    burn_in: int = 5000
    iterations: int = 20000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("chains", "burn_in", "iterations", "thin"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Posterior draws, dimensioned (chains, kept) per scalar parameter
    and (chains, kept, N) for the per-analysis blocks."""

    family: str
    hyper_names: tuple[str, ...]
    hyper: dict[str, np.ndarray] = field(repr=False)
    mu: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    predictive: np.ndarray = field(repr=False)
    deviance: np.ndarray = field(repr=False)
    analysis_ids: tuple[str, ...] = ()
    model: ModelSpec | None = None
    config: McmcConfig | None = None

    def __post_init__(self):
        if np.any(self.tau < 0.0) or np.any(self.predictive < 0.0):
            raise ValueError("negative tau or predictive draw: sampler invariant violated")
        if self.model is not None:
            for name, prior in self.model.hyperpriors.items():
                draws = self.hyper[name]
                for edge in (float(draws.min()), float(draws.max())):
                    if prior.log_density(edge) == -math.inf:
                        raise ValueError(
                            f"hyperparameter {name!r} draw {edge} outside hyperprior support"
                        )

    @property
    def n_chains(self) -> int:
        return self.mu.shape[0]

    @property
    def n_kept(self) -> int:
        return self.mu.shape[1]

    @property
    def n_analyses(self) -> int:
        return self.mu.shape[2]

    def parameter_names(self) -> list[str]:
        names = list(self.hyper_names)
        names += [f"mu[{aid}]" for aid in self.analysis_ids]
        names += [f"tau[{aid}]" for aid in self.analysis_ids]
        names += ["tau_star", "deviance"]
        return names

    def draws(self, name: str) -> np.ndarray:
        """Draws of one parameter as a (chains, kept) array."""
        if name in self.hyper:
            return self.hyper[name]
        if name == "tau_star":
            return self.predictive
        if name == "deviance":
            return self.deviance
        for kind, block in (("mu", self.mu), ("tau", self.tau)):
            prefix = kind + "["
            if name.startswith(prefix) and name.endswith("]"):
                aid = name[len(prefix):-1]
                try:
                    j = self.analysis_ids.index(aid)
                except ValueError:
                    raise KeyError(name) from None
                return block[:, :, j]
        raise KeyError(name)


def _flatten(c: MetaAnalysisCollection):
    records = c.records()
    y = np.array([r.estimate for r in records], dtype=np.float64)
    se2 = np.array([r.std_err**2 for r in records], dtype=np.float64)
    offsets = np.zeros(c.n_analyses + 1, dtype=np.int64)
    np.cumsum(c.sizes, out=offsets[1:])
    return y, se2, offsets


def _initial_state(y, se2, offsets, m: ModelSpec):
    """Fixed-effect means, DL tau (floored at 0.01; 0.01 where DL is
    undefined), hyperprior medians."""
    # metaanalysis imports summarize, which imports this module
    from .metaanalysis import _dl_fit

    n = offsets.size - 1
    mu0 = np.empty(n)
    tau0 = np.empty(n)
    for j in range(n):
        sl = slice(offsets[j], offsets[j + 1])
        mu0[j], _, tau2 = _dl_fit(y[sl], 1.0 / se2[sl])
        tau0[j] = 0.01 if tau2 is None else max(0.01, math.sqrt(tau2))
    th = [float(prior.quantile(0.5)) for prior in m.hyperpriors.values()]
    return mu0, tau0, th[0], th[1] if len(th) == 2 else 0.0


def _check_initial_log_posterior(y, se2, offsets, mu0, tau0, th10, th20, m: ModelSpec):
    fam = HET_FAMILIES[m.het_family]
    lp = 0.0
    for prior, th in zip(m.hyperpriors.values(), (th10, th20)):
        code, a, b, _, _ = _hyper_code(prior)
        lp += _kernels._hyper_logpdf(code, a, b, th)
    sp2 = m.effect_prior_sd**2
    for j in range(offsets.size - 1):
        lp += _kernels._tau_logpost(
            tau0[j], y, se2, offsets[j], offsets[j + 1], mu0[j], fam, th10, th20
        )
        z = (mu0[j] - m.effect_prior_mean) ** 2 / sp2
        lp += -0.5 * (math.log(2.0 * math.pi * sp2) + z)
    if not math.isfinite(lp):
        raise InitializationError(
            f"log-posterior is {lp} at the initial state "
            f"(family {m.het_family!r}, scale start {th10}, shape start {th20})"
        )


def run_hierarchical(
    c: MetaAnalysisCollection, m: ModelSpec | None = None, cfg: McmcConfig | None = None
) -> PosteriorSamples:
    """Sample the joint posterior for a collection of meta-analyses.

    Returns draws of the hyperparameter(s), every (mu_j, tau_j), the
    predictive heterogeneity tau*, and the per-iteration deviance.
    Deterministic given (collection, model, config including seed).
    """
    if m is None:
        m = ModelSpec()
    if cfg is None:
        cfg = McmcConfig()
    y, se2, offsets = _flatten(c)
    mu0, tau0, th10, th20 = _initial_state(y, se2, offsets, m)
    _check_initial_log_posterior(y, se2, offsets, mu0, tau0, th10, th20, m)

    fam = HET_FAMILIES[m.het_family]
    hp1_code, hp1_a, hp1_b, hp1_lo, hp1_hi = _hyper_code(m.scale_hyperprior)
    hp2_code, hp2_a, hp2_b, hp2_lo, hp2_hi = _hyper_code(m.shape_hyperprior)

    chains, kept = cfg.chains, cfg.iterations
    n = offsets.size - 1
    out_mu = np.empty((chains, kept, n))
    out_tau = np.empty((chains, kept, n))
    out_th = np.empty((chains, kept, 2))
    out_pred = np.empty((chains, kept))
    out_dev = np.empty((chains, kept))

    seeds = np.random.SeedSequence(cfg.seed).spawn(chains)
    for ch in range(chains):
        rng = np.random.Generator(np.random.Philox(seeds[ch]))
        _kernels.run_chain(
            y, se2, offsets, fam,
            hp1_code, hp1_a, hp1_b, hp1_lo, hp1_hi,
            hp2_code, hp2_a, hp2_b, hp2_lo, hp2_hi,
            m.effect_prior_mean, m.effect_prior_sd**2,
            mu0, tau0, th10, th20,
            cfg.burn_in, kept, cfg.thin, rng,
            out_mu[ch], out_tau[ch], out_th[ch], out_pred[ch], out_dev[ch],
        )

    hyper = {name: out_th[:, :, i] for i, name in enumerate(m.hyper_names)}
    return PosteriorSamples(
        family=m.het_family,
        hyper_names=m.hyper_names,
        hyper=hyper,
        mu=out_mu,
        tau=out_tau,
        predictive=out_pred,
        deviance=out_dev,
        analysis_ids=tuple(c.analysis_ids),
        model=m,
        config=cfg,
    )


# -- summaries and diagnostics ------------------------------------------------


def summarize_samples(draws) -> dict[str, float]:
    """Empirical {mean, sd, median, q95, q99} of a draw sequence.

    Quantiles use linear (type-7) interpolation; sd is the sample standard
    deviation. Requires at least two values.
    """
    x = np.asarray(draws, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"need at least 2 draws, got {x.size}")
    return {
        "mean": float(np.mean(x)),
        "sd": float(np.std(x, ddof=1)),
        "median": float(np.quantile(x, 0.5)),
        "q95": float(np.quantile(x, 0.95)),
        "q99": float(np.quantile(x, 0.99)),
    }


def split_rhat(x: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for (chains, n) draws."""
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    half = n // 2
    if half < 2:
        return math.nan
    h = np.concatenate([x[:, :half], x[:, n - half:]], axis=0)
    means = h.mean(axis=1)
    w = float(h.var(axis=1, ddof=1).mean())
    b = half * float(means.var(ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else math.inf
    var_plus = (half - 1) / half * w + b / half
    return math.sqrt(var_plus / w)


def effective_sample_size(x: np.ndarray) -> float:
    """Effective sample size from split chains, with the combined
    autocorrelation estimate truncated by the initial-monotone-positive
    pair-sum rule."""
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    total = m * n
    half = n // 2
    if half < 4:
        return float(total)
    h = np.concatenate([x[:, :half], x[:, n - half:]], axis=0)
    n_sub = half
    means = h.mean(axis=1)
    w = float(h.var(axis=1, ddof=1).mean())
    if w == 0.0:
        return float(total)
    b = n_sub * float(means.var(ddof=1))
    var_plus = (n_sub - 1) / n_sub * w + b / n_sub
    centered = h - means[:, None]
    size = 1 << (2 * n_sub - 1).bit_length()
    f = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n_sub] / n_sub
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    # Geyer: sum monotone nonincreasing positive pairs rho[2k] + rho[2k+1]
    pair_sum = 0.0
    prev = math.inf
    for k in range(n_sub // 2):
        p = rho[2 * k] + rho[2 * k + 1]
        if p <= 0.0:
            break
        p = min(p, prev)
        pair_sum += p
        prev = p
    tau_int = max(2.0 * pair_sum - 1.0, 1.0 / total)
    return float(min(total / tau_int, total))


@dataclass(frozen=True)
class ParameterDiagnostics:
    name: str
    rhat: float | None
    ess: float


@dataclass(frozen=True)
class DiagnosticsReport:
    parameters: tuple[ParameterDiagnostics, ...]
    warnings: tuple[str, ...]

    def __getitem__(self, name: str) -> ParameterDiagnostics:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)


def diagnostics(s: PosteriorSamples, parameters: list[str] | None = None) -> DiagnosticsReport:
    """Split-R-hat and effective sample size per monitored parameter.

    Monitors every parameter by default; pass ``parameters`` to restrict.
    With a single chain R-hat is undefined and reported as ``None``.
    Warnings flag R-hat > 1.01 and ESS < 400.
    """
    names = parameters if parameters is not None else s.parameter_names()
    single = s.n_chains < 2
    entries = []
    warns = []
    for name in names:
        x = s.draws(name)
        rhat = None if single else split_rhat(x)
        ess = effective_sample_size(x)
        entries.append(ParameterDiagnostics(name=name, rhat=rhat, ess=ess))
        if rhat is not None and math.isfinite(rhat) and rhat > 1.01:
            warns.append(f"{name}: split-Rhat {rhat:.3f} > 1.01")
        if ess < 400.0:
            warns.append(f"{name}: effective sample size {ess:.0f} < 400")
    return DiagnosticsReport(parameters=tuple(entries), warnings=tuple(warns))


# -- serialization -------------------------------------------------------------


def samples_to_csv(s: PosteriorSamples) -> str:
    """Long-format CSV of all draws: ``chain,iter,parameter,value``.

    Values are written with ``repr`` so parsing back is exact.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["chain", "iter", "parameter", "value"])
    names = s.parameter_names()
    columns = [s.draws(name) for name in names]
    for ch in range(s.n_chains):
        for it in range(s.n_kept):
            for name, col in zip(names, columns):
                writer.writerow([ch, it, name, repr(float(col[ch, it]))])
    return out.getvalue()


def draws_from_csv(text: str) -> dict[str, np.ndarray]:
    """Parse the long-format draw CSV back into (chains, kept) arrays.

    Every row must have the four fields and every parameter a value at
    every (chain, iter) seen in the file, so a cut or ragged file fails
    here instead of reaching the summaries as NaN.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["chain", "iter", "parameter", "value"]:
        raise ValueError(f"unexpected draw-CSV header: {header}")
    values: dict[str, dict[tuple[int, int], float]] = {}
    max_chain = -1
    max_iter = -1
    for row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(
                f"draw CSV line {reader.line_num}: expected 4 fields "
                f"(chain,iter,parameter,value), got {len(row)}"
            )
        ch, it, name, value = int(row[0]), int(row[1]), row[2], float(row[3])
        if ch < 0 or it < 0:
            raise ValueError(f"draw CSV line {reader.line_num}: negative chain or iter")
        values.setdefault(name, {})[(ch, it)] = value
        max_chain = max(max_chain, ch)
        max_iter = max(max_iter, it)
    shape = (max_chain + 1, max_iter + 1)
    out = {}
    for name, cells in values.items():
        if len(cells) != shape[0] * shape[1]:
            ch, it = next(cell for cell in np.ndindex(shape) if cell not in cells)
            raise ValueError(
                f"draw CSV has no value for chain {ch}, iter {it}, parameter {name!r}"
            )
        arr = np.empty(shape)
        for (ch, it), v in cells.items():
            arr[ch, it] = v
        out[name] = arr
    return out


def samples_from_csv(text: str, family: str) -> PosteriorSamples:
    """Rebuild a :class:`PosteriorSamples` from the long-format draw CSV.

    The family determines the hyperparameter names; the analysis ids are
    recovered from the ``mu[...]`` parameter names in file order.
    """
    hyper_names = ModelSpec(het_family=family).hyper_names
    draws = draws_from_csv(text)
    required = set(hyper_names) | {"tau_star", "deviance"}
    missing = sorted(required - set(draws))
    if missing:
        raise ValueError(f"draw CSV is missing parameters: {', '.join(missing)}")
    ids = [n[3:-1] for n in draws if n.startswith("mu[") and n.endswith("]")]
    if not ids:
        raise ValueError("draw CSV holds no mu[...] parameters")
    for aid in ids:
        if f"tau[{aid}]" not in draws:
            raise ValueError(f"draw CSV is missing tau[{aid}]")
    return PosteriorSamples(
        family=family,
        hyper_names=hyper_names,
        hyper={name: draws[name] for name in hyper_names},
        mu=np.stack([draws[f"mu[{aid}]"] for aid in ids], axis=-1),
        tau=np.stack([draws[f"tau[{aid}]"] for aid in ids], axis=-1),
        predictive=draws["tau_star"],
        deviance=draws["deviance"],
        analysis_ids=tuple(ids),
    )


def summary_dict(s: PosteriorSamples, with_diagnostics: bool = True) -> dict:
    """JSON-ready summary: per-parameter statistics plus diagnostics."""
    params = {}
    for name in s.parameter_names():
        params[name] = summarize_samples(s.draws(name))
    doc = {
        "family": s.family,
        "n_analyses": s.n_analyses,
        "chains": s.n_chains,
        "kept_iterations": s.n_kept,
        "backend": BACKEND,
        "parameters": params,
    }
    if with_diagnostics:
        report = diagnostics(s)
        doc["diagnostics"] = {
            p.name: {"rhat": p.rhat, "ess": p.ess} for p in report.parameters
        }
        doc["warnings"] = list(report.warnings)
    return doc
