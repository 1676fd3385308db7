"""MCMC for the hierarchical heterogeneity model.

The model: study estimates y_ij are normal around analysis effects mu_j
with variance sigma_ij^2 + tau_j^2; each analysis has its own
heterogeneity tau_j drawn from a shared parametric family (half-normal,
exponential, half-Cauchy or log-normal) whose hyperparameters get
hyperpriors; mu_j have a common normal prior. Each iteration draws every
mu_j from its exact conjugate normal full conditional, slice-samples every
tau_j and the hyperparameter(s), then draws one predictive heterogeneity
value tau* from the family at the current hyperparameters and records the
deviance.

Each family is one record in :data:`HET_FAMILIES` (see :class:`_Family`).
The hyperpriors, the sampler, the draw container and file, the point and
mixture priors of ``summarize`` and the DIC table of ``dic`` read it there.

The sampler runs in lock step: all chains and all analyses advance
together as (chains, analyses) numpy arrays. Given mu and the
hyperparameters the tau_j full conditionals are independent, and chains
are independent, so one stepping-out/shrinkage slice update (Neal 2003,
"Slice sampling", Ann. Stat. 31:705) moves the whole tau block at once,
with per-element masks marking which elements are still stepping out or
still shrinking; the same routine updates each hyperparameter, held as
a (chains, 1) array, within its hyperprior support. The mu_j draws sum their studies
with ``np.add.reduceat`` over the CSR ``offsets``.

Slice rules: initial width x0 + 0.1, at most 50 step-outs per side, at
most 1000 shrinks; an update that hits the shrink cap keeps x0. Per chain
and per block (tau, each hyperparameter) the sampler counts updates,
log-posterior evaluations, step-out cap hits and shrink cap hits;
:func:`summary_dict` reports them and warns on any cap hit.

Stream contract: every chain has its own ``Generator(Philox)`` spawned
from the master seed, and a chain draws only for its own still-active
elements, in element order. A chain's draws therefore depend on its own
stream and state alone: results are reproducible bit for bit, and adding
chains never perturbs existing ones.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .data import MetaAnalysisCollection
from .dist import (
    Distribution,
    Exponential,
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    LogNormal,
    Normal,
    Uniform,
    exp_mixture_lomax,
    lognormal_from_theta,
    scale_mixture_half_t,
)
from .metaanalysis import _dl_fit

__all__ = [
    "BACKEND",
    "ModelSpec",
    "McmcConfig",
    "PosteriorSamples",
    "ConfigError",
    "InitializationError",
    "run_hierarchical",
    "diagnostics",
    "split_rhat",
    "effective_sample_size",
    "summarize_samples",
    "samples_to_npy",
    "samples_from_npy",
    "samples_to_csv",
    "samples_from_csv",
    "summary_dict",
    "HET_FAMILIES",
    "SLICE_COUNTERS",
]

#: the one sampler implementation, recorded in summaries and manifests
BACKEND = "numpy"

_LOG_2PI = math.log(2.0 * math.pi)
_MAX_STEPOUT = 50
_MAX_SHRINK = 1000
#: step directions of a slice interval's (lower, upper) end
_DOWN_UP = np.array([-1.0, 1.0]).reshape(2, 1, 1)
#: per-chain slice counters, in the column order of the count arrays
SLICE_COUNTERS = ("updates", "log_posterior_evals", "stepout_cap_hits", "shrink_cap_hits")
#: A hyperparameter piles up at the upper bound of a finite hyperprior
#: support when its draws put more than _PILEUP_RATIO times the prior's mass
#: into the top _PILEUP_FRACTION of that support: the data push it against
#: a bound the hyperprior imposes, so the bound, not the data, sets it.
_PILEUP_FRACTION = 0.05
_PILEUP_RATIO = 2.0
#: draw-file rows parsed at a time, so reading holds the text, the float
#: table and one block of row strings, never every row's strings at once
_READ_BLOCK = 4096


class _Family(NamedTuple):
    """A heterogeneity family: its hyperparameter names, in sampler and
    draw-file order; ``log_density(x, *hyper)`` and ``quantile(p, *hyper)``,
    vectorized over values and over scalar or (chains, 1) hyperparameters;
    ``distribution(*hyper)``, the family as a ``Distribution``; and
    ``mixture(*hyper_draws)``, the analytic match of the family mixed over
    flat hyperparameter draws, as a (``Distribution``, note or ``None``)
    pair, or ``None`` for a family without one.

    The vectorized formulas restate ``dist``'s scalar ones on purpose:
    ``np.log`` and ``math.log`` differ in the last bit on some inputs, so
    one shared formula would move either the draws or ``analyze``'s grids.
    """

    hyper_names: tuple[str, ...]
    log_density: Callable
    quantile: Callable
    distribution: Callable[..., Distribution]
    mixture: Callable[..., tuple[Distribution, str | None]] | None


def _log_normal_log_density(x, theta, sigma):
    logx = np.log(x)
    z = (logx - np.log(theta)) / sigma
    return -logx - np.log(sigma) - 0.5 * _LOG_2PI - 0.5 * z * z


def _scale_mixture(mixed, degenerate):
    """Mixture rule of a one-scale family: ``mixed(mean, sd)`` of the scale
    draws, or ``degenerate(mean)`` with a note when their spread is below
    the float noise of the mean."""

    def rule(scale):
        mean, sd = float(np.mean(scale)), float(np.std(scale, ddof=1))
        if sd <= mean * 1e-12:
            return degenerate(mean), "degenerate mixture: zero hyperparameter spread"
        return mixed(mean, sd), None

    return rule


def _log_normal_mixture(theta, sigma):
    """A log-normal mixed over its median and shape is matched by one whose
    shape absorbs the spread of the log median."""
    log_theta = np.log(theta)
    shape = math.sqrt(float(np.mean(sigma**2)) + float(np.var(log_theta, ddof=1)))
    return LogNormal(mu=float(np.mean(log_theta)), sigma=shape), None


#: heterogeneity families accepted by ModelSpec, keyed by canonical token;
#: the log-normal is parametrized by its median theta and shape sigma
HET_FAMILIES = {
    "half-normal": _Family(
        ("scale",),
        lambda x, s: 0.5 * math.log(2.0 / math.pi) - np.log(s) - 0.5 * np.square(x / s),
        lambda p, s: s * math.sqrt(2.0) * special.erfinv(p),
        HalfNormal,
        _scale_mixture(scale_mixture_half_t, lambda mean: scale_mixture_half_t(mean, 0.0)),
    ),
    "exp": _Family(
        ("scale",),
        lambda x, s: -np.log(s) - x / s,
        lambda p, s: -s * np.log1p(-p),
        Exponential,
        _scale_mixture(exp_mixture_lomax, Exponential),
    ),
    "half-cauchy": _Family(
        ("scale",),
        lambda x, s: math.log(2.0 / math.pi) - np.log(s) - np.log1p(np.square(x / s)),
        lambda p, s: s * np.tan(0.5 * math.pi * p),
        HalfCauchy,
        None,
    ),
    "log-normal": _Family(
        ("theta", "sigma"),
        _log_normal_log_density,
        lambda p, theta, sigma: theta * np.exp(sigma * special.ndtri(p)),
        lognormal_from_theta,
        _log_normal_mixture,
    ),
}

_HYPERPRIORS = (Uniform, HalfNormal, Exponential, HalfCauchy, LogNormal, HalfStudentT)


class ConfigError(ValueError):
    """Model or hyperprior configuration outside the supported space."""


class InitializationError(RuntimeError):
    """The log-posterior is not finite at the initial state."""


def _hyper_support(prior: Distribution) -> tuple[float, float]:
    """Support [lo, hi] of a hyperprior; hyperparameters are scales (>= 0)."""
    if isinstance(prior, Uniform):
        if prior.lo < 0.0:
            raise ConfigError(
                f"hyperprior {prior} allows negative values; hyperparameters are scales (>= 0)"
            )
        return prior.lo, prior.hi
    if isinstance(prior, _HYPERPRIORS):
        return 0.0, math.inf
    raise ConfigError(f"unsupported hyperprior family: {prior}")


@dataclass(frozen=True)
class ModelSpec:
    """Heterogeneity family plus its hyperpriors and the effect prior.

    ``het_family`` is a key of :data:`HET_FAMILIES`. The family's first
    hyperparameter (``scale``, or the log-normal's median ``theta``) gets
    ``scale_hyperprior``; its second (the log-normal's shape ``sigma``)
    gets ``shape_hyperprior``. Analysis effects mu_j share a
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
            _hyper_support(prior)

    @property
    def hyperpriors(self) -> dict[str, Distribution]:
        """The family's hyperparameters, in sampler order, with their priors."""
        names = HET_FAMILIES[self.het_family].hyper_names
        return dict(zip(names, (self.scale_hyperprior, self.shape_hyperprior)))


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


def _parameter_names(family: str, analysis_ids) -> list[str]:
    """The columns of a draw table, as :meth:`PosteriorSamples.parameter_names`."""
    names = list(HET_FAMILIES[family].hyper_names)
    names += [f"mu[{aid}]" for aid in analysis_ids]
    names += [f"tau[{aid}]" for aid in analysis_ids]
    names += ["tau_star", "deviance"]
    return names


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Posterior draws as one read-only (chains, kept, P) table whose P
    columns are :meth:`parameter_names`, the layout of ``samples.npy``.

    ``hyper`` (name -> (chains, kept)), ``mu`` and ``tau`` ((chains, kept,
    N)), ``predictive`` and ``deviance`` are views of its columns.
    ``slice_counts`` maps each slice block (``tau`` and each hyperparameter)
    to a (chains, 4) integer array of the counters named in
    ``SLICE_COUNTERS``, over all iterations including burn-in; it is
    ``None`` for draws read back from a file.
    """

    family: str
    table: np.ndarray = field(repr=False)
    analysis_ids: tuple[str, ...]
    model: ModelSpec | None = None
    config: McmcConfig | None = None
    slice_counts: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        width = len(self.parameter_names())
        if self.table.ndim != 3 or self.table.shape[-1] != width:
            raise ValueError(
                f"draw table of shape {self.table.shape}, but the {self.family} family and "
                f"{self.n_analyses} analysis ids call for (chains, kept, {width})"
            )
        table = self.table.view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
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
    def hyper_names(self) -> tuple[str, ...]:
        return HET_FAMILIES[self.family].hyper_names

    @property
    def n_chains(self) -> int:
        return self.table.shape[0]

    @property
    def n_kept(self) -> int:
        return self.table.shape[1]

    @property
    def n_analyses(self) -> int:
        return len(self.analysis_ids)

    @property
    def hyper(self) -> dict[str, np.ndarray]:
        return {name: self.table[..., i] for i, name in enumerate(self.hyper_names)}

    @property
    def mu(self) -> np.ndarray:
        n = self.n_analyses
        return self.table[..., -2 - 2 * n : -2 - n]

    @property
    def tau(self) -> np.ndarray:
        return self.table[..., -2 - self.n_analyses : -2]

    @property
    def predictive(self) -> np.ndarray:
        return self.table[..., -2]

    @property
    def deviance(self) -> np.ndarray:
        return self.table[..., -1]

    def parameter_names(self) -> list[str]:
        return _parameter_names(self.family, self.analysis_ids)

    @cached_property
    def _column(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.parameter_names())}

    def draws(self, name: str) -> np.ndarray:
        """Draws of one parameter as a (chains, kept) array."""
        return self.table[..., self._column[name]]

    def columns(self):
        """(name, (chains, kept) draws) for every column, in table order."""
        return zip(self.parameter_names(), np.moveaxis(self.table, -1, 0))


def _flatten(c: MetaAnalysisCollection):
    """Study estimates, squared standard errors and the CSR offsets of the
    analyses; the squares are numpy's, as in ``metaanalysis``."""
    records = c.records()
    y = np.array([r.estimate for r in records], dtype=np.float64)
    se2 = np.array([r.std_err for r in records], dtype=np.float64) ** 2
    offsets = np.zeros(c.n_analyses + 1, dtype=np.int64)
    np.cumsum(c.sizes, out=offsets[1:])
    return y, se2, offsets


def _neg2_loglik(se2, resid2, tau, sizes, starts):
    """Per-analysis -2 log likelihood, less its log(2 pi) terms, at taus of
    shape (..., N) and squared residuals (y_ij - mu_j)^2 of shape
    (..., studies); ``sizes`` and ``starts`` lay the studies out by analysis."""
    v = se2 + np.repeat(np.square(tau), sizes, axis=-1)
    return np.add.reduceat(np.log(v) + resid2 / v, starts, axis=-1)


def _deviance(y, se2, offsets, mu, tau):
    """-2 log likelihood of all studies at per-analysis effects and taus of
    shape (..., N); the result has their leading shape."""
    sizes = np.diff(offsets)
    resid2 = np.square(y - np.repeat(mu, sizes, axis=-1))
    terms = _neg2_loglik(se2, resid2, tau, sizes, offsets[:-1])
    return terms.sum(axis=-1) + y.size * _LOG_2PI


def _initial_state(y, se2, offsets, m: ModelSpec):
    """Fixed-effect means, DL tau (floored at 0.01; 0.01 where DL is
    undefined), hyperprior medians."""
    n = offsets.size - 1
    mu0 = np.empty(n)
    tau0 = np.empty(n)
    for j in range(n):
        sl = slice(offsets[j], offsets[j + 1])
        mu0[j], _, tau2 = _dl_fit(y[sl], se2[sl])
        tau0[j] = 0.01 if tau2 is None else max(0.01, math.sqrt(tau2))
    th0 = [float(prior.quantile(0.5)) for prior in m.hyperpriors.values()]
    return mu0, tau0, th0


def _check_initial_log_posterior(y, se2, offsets, mu0, tau0, th0, m: ModelSpec):
    lp = sum(prior.log_density(th) for prior, th in zip(m.hyperpriors.values(), th0))
    with np.errstate(divide="ignore", invalid="ignore"):
        lp += float(np.sum(HET_FAMILIES[m.het_family].log_density(tau0, *th0)))
    lp += -0.5 * float(_deviance(y, se2, offsets, mu0, tau0))
    lp += float(np.sum(Normal(m.effect_prior_mean, m.effect_prior_sd).log_density(mu0)))
    if not math.isfinite(lp):
        raise InitializationError(
            f"log-posterior is {lp} at the initial state "
            f"(family {m.het_family!r}, hyperparameters {dict(zip(m.hyperpriors, th0))})"
        )


def _chain_draws(rngs, method: str, shape, mask: np.ndarray | None = None) -> np.ndarray:
    """Variates from ``Generator.<method>`` in a (chains, m) array, at the
    True elements of ``mask`` (at every element if it is None) and zero
    elsewhere: each chain draws from its own generator, for its own
    elements, in element order."""
    if mask is None:
        out = np.empty(shape)
        for row, r in zip(out, rngs):
            getattr(r, method)(out=row)
        return out
    out = np.zeros(shape)
    for row, m, r in zip(out, mask, rngs):
        n = np.count_nonzero(m)
        if n:
            row[m] = getattr(r, method)(n)
    return out


def _slice(x0, log_post, lo, hi, rngs, counts):
    """One stepping-out/shrinkage slice update of every element of the
    (chains, m) array ``x0``.

    ``log_post`` maps a (chains, m) array, or a (2, chains, m) stack of
    two, to the elementwise log full conditional; it is evaluated at every
    element, and the values of elements that are no longer active are
    ignored. Each element moves within [lo, hi] with initial width
    x0 + 0.1, at most ``_MAX_STEPOUT`` step-outs per side and at most
    ``_MAX_SHRINK`` shrinks, and keeps x0 on a shrink cap hit. ``counts``
    is a (chains, 4) integer array to which the per-chain counts named in
    ``SLICE_COUNTERS`` are added.
    """
    w = x0 + 0.1
    logy = log_post(x0) - _chain_draws(rngs, "standard_exponential", x0.shape)
    ends = np.empty((2, *x0.shape))
    left, right = ends
    np.subtract(x0, w * _chain_draws(rngs, "random", x0.shape), out=left)
    np.minimum(left + w, hi, out=right)
    np.maximum(left, lo, out=left)

    # step both ends out together, the lower one down and the upper one up,
    # each until it leaves the slice or reaches its bound; ``evals`` counts
    # each element's log-posterior evaluations after the one at x0
    step = w * _DOWN_UP
    out = np.empty(ends.shape, dtype=bool)
    np.greater(left, lo, out=out[0])
    np.less(right, hi, out=out[1])
    evals = np.zeros(x0.shape, dtype=np.int64)
    for _ in range(_MAX_STEPOUT):
        if not np.count_nonzero(out):
            break
        evals += out[0]
        evals += out[1]
        out &= log_post(ends) > logy
        np.add(ends, step, out=ends, where=out)
        out[0] &= left > lo
        out[1] &= right < hi
    np.maximum(left, lo, out=left)
    np.minimum(right, hi, out=right)

    x = x0.copy()
    active = np.ones(x0.shape, dtype=bool)
    for _ in range(_MAX_SHRINK):
        evals += active
        x1 = left + _chain_draws(rngs, "random", x0.shape, active) * (right - left)
        accept = log_post(x1) > logy
        accept &= active
        np.copyto(x, x1, where=accept)
        active ^= accept
        if not np.count_nonzero(active):
            break
        # shrink toward x0; the bounds of finished elements no longer matter
        below = x1 < x0
        left, right = np.where(below, x1, left), np.where(below, right, x1)
    counts[:, 0] += x0.shape[1]
    counts[:, 1] += x0.shape[1] + evals.sum(axis=1)
    counts[:, 2] += out.sum(axis=(0, 2))
    counts[:, 3] += active.sum(axis=1)
    return x


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
    mu0, tau0, th0 = _initial_state(y, se2, offsets, m)
    _check_initial_log_posterior(y, se2, offsets, mu0, tau0, th0, m)

    fam = HET_FAMILIES[m.het_family]
    hyper_blocks = [
        (i, name, prior, *_hyper_support(prior))
        for i, (name, prior) in enumerate(m.hyperpriors.items())
    ]
    sizes = np.diff(offsets)
    starts = offsets[:-1]
    prior_prec = 1.0 / m.effect_prior_sd**2
    prior_wmean = m.effect_prior_mean * prior_prec

    chains, kept = cfg.chains, cfg.iterations
    # one row per kept draw, in the column order of parameter_names()
    table = np.empty((chains, kept, len(_parameter_names(m.het_family, c.analysis_ids))))
    counts = {
        name: np.zeros((chains, len(SLICE_COUNTERS)), dtype=np.int64)
        for name in ("tau", *fam.hyper_names)
    }

    seeds = np.random.SeedSequence(cfg.seed).spawn(chains)
    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    tau = np.tile(tau0, (chains, 1))
    th = np.tile(th0, (chains, 1))
    hyper = [th[:, i : i + 1] for i in range(len(th0))]  # (chains, 1) views of th
    total = cfg.burn_in + (kept - 1) * cfg.thin + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(total):
            # mu_j | tau_j: exact conjugate normal draws
            wgt = 1.0 / (se2 + np.repeat(np.square(tau), sizes, axis=1))
            prec = prior_prec + np.add.reduceat(wgt, starts, axis=1)
            mean = (prior_wmean + np.add.reduceat(wgt * y, starts, axis=1)) / prec
            mu = mean + _chain_draws(rngs, "standard_normal", tau.shape) / np.sqrt(prec)
            resid2 = np.square(y - np.repeat(mu, sizes, axis=1))

            def tau_log_post(x):
                return fam.log_density(x, *hyper) - 0.5 * _neg2_loglik(
                    se2, resid2, x, sizes, starts
                )

            tau = _slice(tau, tau_log_post, 0.0, math.inf, rngs, counts["tau"])

            for i, name, prior, lo, hi in hyper_blocks:

                def hyper_log_post(x):
                    params = list(hyper)
                    params[i] = x
                    lp = fam.log_density(tau, *params).sum(axis=-1, keepdims=True)
                    return prior.log_density(x) + lp

                hyper[i][:] = _slice(hyper[i], hyper_log_post, lo, hi, rngs, counts[name])

            pred = fam.quantile(_chain_draws(rngs, "random", (chains, 1)), *hyper)[:, 0]
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                dev = _deviance(y, se2, offsets, mu, tau)
                row = table[:, (it - cfg.burn_in) // cfg.thin]
                np.concatenate([th, mu, tau, pred[:, None], dev[:, None]], axis=1, out=row)

    return PosteriorSamples(
        family=m.het_family,
        table=table,
        analysis_ids=tuple(c.analysis_ids),
        model=m,
        config=cfg,
        slice_counts=counts,
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


def _predictive_summary(s: PosteriorSamples) -> dict[str, float | None]:
    """:func:`summarize_samples` of the predictive draws of ``s``, with the
    mean and sd its family does not have (the half-Cauchy has neither) as
    ``None``: the draws' values would be unstable noise."""
    summary = summarize_samples(s.predictive)
    record = HET_FAMILIES[s.family]
    # which moments a family has does not depend on its hyperparameters
    moments = record.distribution(*[1.0] * len(record.hyper_names)).moments()
    if moments.mean is None:
        summary["mean"] = None
    if moments.sd is None:
        summary["sd"] = None
    return summary


def _distribution_summary(d: Distribution) -> dict[str, float | None]:
    """The :func:`summarize_samples` statistics of a distribution: its
    closed-form mean and sd (``None`` where it has none) and quantiles."""
    m = d.moments()
    return {
        "mean": m.mean,
        "sd": m.sd,
        "median": float(d.quantile(0.5)),
        "q95": float(d.quantile(0.95)),
        "q99": float(d.quantile(0.99)),
    }


#: the text columns of a summary dict, key -> heading
_SUMMARY_COLUMNS = {"mean": "mean", "sd": "sd", "median": "50%", "q95": "95%", "q99": "99%"}
_SUMMARY_HEADING = "  ".join(heading.rjust(6) for heading in _SUMMARY_COLUMNS.values())


def _summary_cells(summary: dict) -> str:
    """A summary dict's statistics under :data:`_SUMMARY_HEADING`: 6 wide,
    2 decimals, ``-`` for ``None``."""
    return "  ".join(
        ("-" if summary[key] is None else f"{summary[key]:.2f}").rjust(6) for key in _SUMMARY_COLUMNS
    )


def _split_chains(x: np.ndarray):
    """Each chain of (chains, n) draws cut into a first and a last half of
    n // 2 draws: the halves, their means, the mean within-half variance W
    and var+ = (n_half - 1) / n_half W + B / n_half, B the between-half
    variance."""
    n = x.shape[1]
    half = n // 2
    h = np.concatenate([x[:, :half], x[:, n - half:]], axis=0)
    means = h.mean(axis=1)
    w = float(h.var(axis=1, ddof=1).mean())
    b = half * float(means.var(ddof=1))
    return h, means, w, (half - 1) / half * w + b / half


def split_rhat(x: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for (chains, n) draws:
    NaN below 4 draws per chain, infinite when every half-chain is constant
    but the halves differ."""
    x = np.asarray(x, dtype=float)
    if x.shape[1] // 2 < 2:
        return math.nan
    _, _, w, var_plus = _split_chains(x)
    if w == 0.0:
        return 1.0 if var_plus == 0.0 else math.inf
    return math.sqrt(var_plus / w)


def effective_sample_size(x: np.ndarray) -> float:
    """Effective sample size from split chains, with the combined
    autocorrelation estimate truncated by the initial-monotone-positive
    pair-sum rule; the draw count below 8 draws per chain or when every
    draw is equal."""
    x = np.asarray(x, dtype=float)
    total = x.size
    n_sub = x.shape[1] // 2
    if n_sub < 4 or x.min() == x.max():
        return float(total)
    h, means, w, var_plus = _split_chains(x)
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


def diagnostics(s: PosteriorSamples) -> tuple[dict[str, dict], list[str]]:
    """Split-R-hat and effective sample size per parameter, as
    ``({name: {"rhat", "ess"}}, warnings)``.

    A single chain gets the R-hat of its two halves. An R-hat that is not
    finite is reported as ``None``, with a warning that says why. Warnings
    flag R-hat > 1.01 and ESS < 400.
    """
    entries = {}
    warns = []
    for name, x in s.columns():
        rhat = split_rhat(x)
        if math.isnan(rhat):
            warns.append(f"{name}: split-Rhat undefined with {s.n_kept} draws per chain (needs 4)")
            rhat = None
        elif rhat == math.inf:
            warns.append(f"{name}: split-Rhat infinite: every half-chain is constant, the halves differ")
            rhat = None
        elif rhat > 1.01:
            warns.append(f"{name}: split-Rhat {rhat:.3f} > 1.01")
        ess = effective_sample_size(x)
        entries[name] = {"rhat": rhat, "ess": ess}
        if ess < 400.0:
            warns.append(f"{name}: effective sample size {ess:.0f} < 400")
    return entries, warns


# -- serialization -------------------------------------------------------------


def samples_to_npy(s: PosteriorSamples) -> bytes:
    """The draw table of ``s`` as ``.npy`` bytes: one C-ordered (chains,
    kept, P) float64 array, bit for bit, whose P columns are
    :meth:`PosteriorSamples.parameter_names`. The names are not in it (a
    ``.npy`` holds strings only by pickle); ``np.save`` writes the same bytes
    for the same table."""
    buf = io.BytesIO()
    np.save(buf, s.table, allow_pickle=False)
    return buf.getvalue()


def samples_from_npy(data: bytes, family: str, columns: list[str]) -> PosteriorSamples:
    """Rebuild a :class:`PosteriorSamples` from the bytes of
    :func:`samples_to_npy` and the names of its columns.

    ``data`` must hold exactly one ``.npy`` array, loaded without pickle: a
    float64 (chains, kept, P) array with at least one draw, P the number of
    ``columns``, and every value finite. ``columns`` must be the family's
    layout for the analysis ids of its ``mu[...]`` names. Anything else
    fails here, naming the cause.
    """
    ModelSpec(het_family=family)  # raises ConfigError for an unknown family
    if not data.startswith(np.lib.format.MAGIC_PREFIX):
        raise ValueError("not a .npy file: it does not start with the .npy magic string")
    buf = io.BytesIO(data)
    # a damaged header can claim a shape larger than memory
    try:
        table = np.load(buf, allow_pickle=False)
    except (ValueError, MemoryError) as e:
        raise ValueError(f"does not load as a .npy array without pickle ({e})") from None
    if buf.tell() != len(data):
        raise ValueError(f"{len(data) - buf.tell()} bytes follow the .npy array")
    if table.dtype != np.float64:
        raise ValueError(f"dtype {table.dtype}, expected float64")
    if table.ndim != 3:
        raise ValueError(f"array of shape {table.shape}, expected 3 axes (chains, kept, columns)")
    if table.shape[-1] != len(columns):
        raise ValueError(f"{table.shape[-1]} columns in the array, but {len(columns)} column names")
    ids = [name[3:-1] for name in columns if name.startswith("mu[") and name.endswith("]")]
    if not ids:
        raise ValueError("the column names hold no mu[...] column")
    expected = _parameter_names(family, ids)
    if columns != expected:
        raise ValueError(f"columns for the {family} family: {_header_problem(columns, expected)}")
    if not table.size:
        raise ValueError(f"array of shape {table.shape} holds no draws")
    if not np.isfinite(table).all():
        c, i, j = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(f"chain {c}, draw {i}: {columns[j]} is {table[c, i, j]}")
    return PosteriorSamples(family=family, table=table, analysis_ids=tuple(ids))


def samples_to_csv(s: PosteriorSamples) -> str:
    """CSV of all draws, for export to tools without a ``.npy`` reader (the
    command line writes :func:`samples_to_npy`): header ``chain,iter`` plus
    :meth:`PosteriorSamples.parameter_names`, then one row per (chain,
    iter) in chain-major order.

    Values are written with ``repr`` so parsing back is exact.
    """
    out = io.StringIO()
    # ids may need quoting; a float's repr never does
    csv.writer(out, lineterminator="\n").writerow(["chain", "iter", *s.parameter_names()])
    out.writelines(
        f"{c},{i}," + ",".join(map(repr, row)) + "\n"
        for c, chain in enumerate(s.table)
        for i, row in enumerate(chain.tolist())
    )
    return out.getvalue()


def _header_problem(header: list[str], expected: list[str]) -> str:
    """The first duplicate, missing, unexpected or misplaced column."""
    seen = set()
    for name in header:
        if name in seen:
            return f"duplicate column {name!r}"
        seen.add(name)
    for name in expected:
        if name not in seen:
            return f"missing column {name!r}"
    wanted = set(expected)
    for name in header:
        if name not in wanted:
            return f"unexpected column {name!r}"
    i = next(i for i, (a, b) in enumerate(zip(header, expected)) if a != b)
    return f"column {i + 1} is {header[i]!r}, expected {expected[i]!r}"


def _lines(text: str):
    """The lines of ``text`` with their ends, split at ``\\n`` only, as a
    file in text mode yields them; unlike ``io.StringIO`` this copies no
    more than one line of the text at a time."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _parse_block(rows: list[list[str]], header: list[str], first_line: int) -> np.ndarray:
    """Float table of draw rows that start at ``first_line`` of the file;
    every row must have the header's width and hold numbers only."""
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"draw CSV line {first_line + i}: expected {len(header)} fields, got {len(row)}"
            )
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        for i, row in enumerate(rows):
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"draw CSV line {first_line + i}: {name} is not a number: {cell!r}"
                    ) from None
        raise


def samples_from_csv(text: str, family: str) -> PosteriorSamples:
    """Rebuild a :class:`PosteriorSamples` from the draw CSV of
    :func:`samples_to_csv`: the library's CSV import (the command line
    reads :func:`samples_from_npy`).

    The family determines the hyperparameter names; the analysis ids are
    read from the ``mu[...]`` columns. The header must list exactly the
    columns the family and those ids call for, every row must have the
    header's width, the (chain, iter) cells must run 0..C-1 x 0..K-1 in
    chain-major order with every chain equally long, and every value must
    be a finite number, so a cut, ragged or reordered file fails here,
    naming the line, instead of reaching the summaries.
    """
    ModelSpec(het_family=family)  # raises ConfigError for an unknown family
    reader = csv.reader(_lines(text))
    header = next(reader, [])
    if header == ["chain", "iter", "parameter", "value"]:
        raise ValueError(
            "draw CSV is in the schema-1 long layout (chain,iter,parameter,value), "
            "one row per value; re-run `hetprior fit` to write one row per draw"
        )
    ids = [name[3:-1] for name in header if name.startswith("mu[") and name.endswith("]")]
    if not ids:
        raise ValueError("draw CSV holds no mu[...] columns")
    expected = ["chain", "iter", *_parameter_names(family, ids)]
    if header != expected:
        raise ValueError(
            f"draw CSV header for the {family} family: {_header_problem(header, expected)}"
        )
    first_line = reader.line_num + 1
    blocks = []
    while rows := list(itertools.islice(reader, _READ_BLOCK)):
        blocks.append(_parse_block(rows, header, first_line + _READ_BLOCK * len(blocks)))
    if not blocks:
        raise ValueError("draw CSV holds no draws")
    table = np.concatenate(blocks)
    n_rows = len(table)
    # the first row after the top with iter 0 starts chain 1, so chain 0
    # sets the chain length; the other chains must repeat it
    n_kept = next((i for i, it in enumerate(table[1:, 1], 1) if it == 0.0), n_rows)
    cells = np.stack(np.divmod(np.arange(n_rows), n_kept), axis=-1)
    wrong = np.flatnonzero(np.any(table[:, :2] != cells, axis=1))
    if wrong.size:
        i = wrong[0]
        raise ValueError(
            f"draw CSV line {first_line + i}: got chain {table[i, 0]:g}, iter {table[i, 1]:g}, "
            f"expected chain {cells[i, 0]}, iter {cells[i, 1]} (rows run chain-major, "
            f"{n_kept} iterations per chain as in chain 0)"
        )
    if n_rows % n_kept:
        raise ValueError(
            f"draw CSV line {first_line + n_rows - 1}: chain {n_rows // n_kept} ends after "
            f"{n_rows % n_kept} of {n_kept} iterations"
        )
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"draw CSV line {first_line + i}: {header[j]} is {table[i, j]}")
    return PosteriorSamples(
        family=family,
        table=table[:, 2:].reshape(n_rows // n_kept, n_kept, -1),
        analysis_ids=tuple(ids),
    )


def _slice_warnings(counts: dict[str, np.ndarray]) -> list[str]:
    """One warning per slice block and cap that was hit."""
    warns = []
    for block, per_chain in counts.items():
        stepout = int(per_chain[:, SLICE_COUNTERS.index("stepout_cap_hits")].sum())
        shrink = int(per_chain[:, SLICE_COUNTERS.index("shrink_cap_hits")].sum())
        if stepout:
            warns.append(
                f"{block}: {stepout} slice step-outs stopped at the {_MAX_STEPOUT}-step cap; "
                "those slice intervals were truncated"
            )
        if shrink:
            warns.append(
                f"{block}: {shrink} slice updates hit the {_MAX_SHRINK}-shrink cap "
                "and kept the current value"
            )
    return warns


def _bound_warnings(s: PosteriorSamples) -> list[str]:
    """Warnings for hyperparameters whose draws pile up at the upper bound
    of a finite hyperprior support (the ``_PILEUP_*`` rule)."""
    warns = []
    for name, prior in s.model.hyperpriors.items():
        lo, hi = _hyper_support(prior)
        if not math.isfinite(hi):
            continue
        edge = hi - _PILEUP_FRACTION * (hi - lo)
        prior_mass = 1.0 - float(prior.cdf(edge))
        mass = float(np.mean(s.hyper[name] >= edge))
        if mass > _PILEUP_RATIO * prior_mass:
            warns.append(
                f"{name}: {mass:.1%} of draws lie in the top {_PILEUP_FRACTION:.0%} of the "
                f"hyperprior support [{lo:g}, {hi:g}], against {prior_mass:.1%} of the prior; "
                f"the posterior piles up at the bound {hi:g}, so widen the hyperprior"
            )
    return warns


def summary_dict(s: PosteriorSamples) -> dict:
    """JSON-ready summary: per-parameter statistics, diagnostics, the
    slice-sampler counters of a fresh run, and one list of warnings
    (diagnostics, slice cap hits, hyperparameters piled up at a bound)."""
    params = {name: summarize_samples(x) for name, x in s.columns()}
    doc = {
        "family": s.family,
        "n_analyses": s.n_analyses,
        "chains": s.n_chains,
        "kept_iterations": s.n_kept,
        "backend": BACKEND,
        "parameters": params,
    }
    doc["diagnostics"], warns = diagnostics(s)
    if s.slice_counts is not None:
        doc["slice_sampler"] = {
            block: {name: per_chain[:, i].tolist() for i, name in enumerate(SLICE_COUNTERS)}
            for block, per_chain in s.slice_counts.items()
        }
        warns += _slice_warnings(s.slice_counts)
    if s.model is not None:
        warns += _bound_warnings(s)
    doc["warnings"] = warns
    return doc
