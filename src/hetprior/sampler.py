"""Exact posterior draws for the hierarchical heterogeneity model.

The model: study estimates y_ij are normal around analysis effects mu_j
with variance sigma_ij^2 + tau_j^2; each analysis has its own
heterogeneity tau_j drawn from a shared family (half-normal, exponential,
half-Cauchy or log-normal) whose hyperparameters theta get hyperpriors;
mu_j have a common normal prior. Each family is one record in
:data:`HET_FAMILIES`, which the hyperpriors, the sampler, the draw file,
``summarize`` and ``dic`` read.

The draws need no Markov chain: this is ``bayesmeta``'s grid (Roever 2020,
JSS 93(6)) one level up. mu_j integrates out, leaving the collapsed
likelihood L_j(tau) of ``metaanalysis._integrated_loglik``, and given theta
the tau_j are independent, so p(theta | y) ~ p(theta) prod_j m_j(theta),
m_j(theta) = int L_j(tau) f(tau | theta) dtau. Each kept draw is
independent: theta from its grid posterior, uniform within a cell picked by
inverse cdf; each tau_j from L_j f(. | theta), a tau cell picked at the
theta cell's centre and the family's quantile within it; mu_j from its
conjugate normal; tau* from f(. | theta). ``McmcConfig.burn_in`` and
``thin`` are recorded but change no draw.

The tau grid is ``metaanalysis._tau_grid``: ``_TAU_NODES`` base nodes
spaced as cubes, finest near 0, up to the 0.9999 quantile of a half-normal
of the data's widest spread, max |y_ij - ybar_j| + sigma_ij
(``_reference_top``), with a tenth as many nodes per doubling of an
extension; one loop over ``metaanalysis._tau_grids`` stops at the first
extension count where no tau_j has posterior mass ``_TAIL_MASS`` in its top
5%. The grids are nested, so each pass tabulates only the nodes of its new
doubling; the base grid's come with the corpus tables, which the caller
builds and passes down. The grid is one (nodes, cells) pair, cells a
(cells, N) float32 table of L_j averaged over each cell's ends. A cell's
prior mass comes from the family's cdf, exact even where f(. | theta) is
narrower than the cell. ``analyze``'s tau posterior is the one-analysis,
fixed-prior case of these cell masses.
The theta cells follow the hyperpriors' supports, are weighed at their
centres and refined by mass (see :func:`_quadrature`); m_j is one float32
product per ``_ROW_BLOCK`` theta cells, so no (theta cells x tau cells)
table is held whole; a theta cell's m_j may differ in its last bits,
deterministically, with the cells that share its block.

Each tau_j's cell is picked down a three-level tree of partial sums of
M_g Lbar_jg (Devroye 1986, *Non-Uniform Random Variate Generation*, ch.
III): a block of ``_TAU_BLOCK`` cells, one of its sub-blocks of
``_SUB_BLOCK`` cells, then a cell, reading about ten, eight and eight values
(:func:`_tau_draws`, the one place that pads the table to whole blocks).
One batched float32 product per batch of drawn theta cells gives every
sub-block sum. The picks read those sums pick-major, one contiguous row
per (drawn theta cell, analysis), and the cell likelihoods as one row of
eight per (analysis, sub-block), so each level of a pick gathers whole
rows. A batch holds about 4 ``_BLOCK`` sums and a chunk of
picks about ``_BLOCK`` / 4, so the working set stays near a MiB whatever
the draw count.

Every chain has its own ``Generator(Philox)`` spawned from the seed; the
rest is computed element by element from the tables, so results are
reproducible bit for bit, no draw depends on which other theta cells were
drawn or how they were batched, and adding chains never perturbs existing
ones.

The law of the draws is a function of the tables alone:
:func:`posterior_mixture` gives, with no draw, each tau_j's posterior mass
in each tau cell, mixed over the theta cells, and the posterior means of
mu_j, tau_j and each analysis' deviance, from which ``compare`` takes its
DIC (the means given tau come from the pooled sums of the cell
likelihoods); :func:`predictive_draws` draws only theta and tau*, from
the same streams as :func:`run_hierarchical`.
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
from .metaanalysis import (
    _TAIL_MASS,
    GridError,
    _integrated_loglik,
    _reference_top,
    _tau_grid,
    _tau_grids,
)

__all__ = [
    "BACKEND",
    "ModelSpec",
    "McmcConfig",
    "PosteriorSamples",
    "ConfigError",
    "run_hierarchical",
    "PosteriorMixture",
    "posterior_mixture",
    "predictive_draws",
    "diagnostics",
    "split_rhat",
    "summarize_samples",
    "samples_to_npy",
    "samples_from_npy",
    "samples_to_csv",
    "samples_from_csv",
    "summary_dict",
    "HET_FAMILIES",
]

#: the one sampler implementation, recorded in summaries and manifests
BACKEND = "numpy"

_LOG_2PI = math.log(2.0 * math.pi)
#: coarse theta cells: edges in ratio _COARSE_RATIO down to _THETA_FLOOR
#: times the top; refinement: each coarse cell with more than _SETTLE of the
#: mass is cut until no band of an axis holds more than 1 / _BANDS[axes] of
#: that marginal, then each cell with more than 1 / _THETA_CELLS, in at most
#: _REFINEMENTS passes
_COARSE_RATIO, _THETA_FLOOR = 2.0, 2e-4
_SETTLE, _BANDS, _THETA_CELLS, _REFINEMENTS = 1e-4, {1: 256, 2: 16}, 256, 4
#: theta cells per block of the (theta cells x tau cells) prior masses, and
#: weighed at a time in a refinement, so a posterior mixture holds the masses
#: of that many cells at once; tau cells per block and per sub-block of the
#: tree of partial sums that picks a tau cell; values per block of the
#: temporary arrays
_ROW_BLOCK, _TAU_BLOCK, _SUB_BLOCK, _BLOCK = 64, 64, 8, 1 << 14
#: the cell likelihoods are float32: their rounding, a relative 6e-8, is far
#: below the quadrature's error, at half the memory
_LIKELIHOOD = np.float32
#: the smallest normal float32; :func:`_marginals` and :func:`_mixed` count
#: smaller factors as 0
_TINY = float(np.finfo(_LIKELIHOOD).tiny)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
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
    draw-file order; ``cdf(x, *hyper)`` and ``quantile(p, *hyper)``,
    vectorized over values and over scalar or (rows, 1) hyperparameters;
    ``distribution(*hyper)``, the family as a ``Distribution``; and
    ``mixture(*hyper_draws)``, the analytic match of the family mixed over
    flat hyperparameter draws, as a (``Distribution``, note or ``None``)
    pair, or ``None`` for a family without one.

    The vectorized formulas restate ``dist``'s scalar ones on purpose:
    ``np.log`` and ``math.log`` differ in the last bit on some inputs, so
    one shared formula would move either the draws or ``analyze``'s grids.
    """

    hyper_names: tuple[str, ...]
    cdf: Callable
    quantile: Callable
    distribution: Callable[..., Distribution]
    mixture: Callable[..., tuple[Distribution, str | None]] | None


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
        lambda x, s: special.erf(x / (s * math.sqrt(2.0))),
        lambda p, s: s * math.sqrt(2.0) * special.erfinv(p),
        HalfNormal,
        _scale_mixture(scale_mixture_half_t, lambda mean: scale_mixture_half_t(mean, 0.0)),
    ),
    "exp": _Family(
        ("scale",),
        lambda x, s: -np.expm1(-x / s),
        lambda p, s: -s * np.log1p(-p),
        Exponential,
        _scale_mixture(exp_mixture_lomax, Exponential),
    ),
    "half-cauchy": _Family(
        ("scale",),
        lambda x, s: (2.0 / math.pi) * np.arctan(x / s),
        lambda p, s: s * np.tan(0.5 * math.pi * p),
        HalfCauchy,
        None,
    ),
    "log-normal": _Family(
        ("theta", "sigma"),
        lambda x, theta, sigma: special.ndtr((np.log(x) - np.log(theta)) / sigma),
        lambda p, theta, sigma: theta * np.exp(sigma * special.ndtri(p)),
        lognormal_from_theta,
        _log_normal_mixture,
    ),
}

_HYPERPRIORS = (Uniform, HalfNormal, Exponential, HalfCauchy, LogNormal, HalfStudentT)


class ConfigError(ValueError):
    """Model or hyperprior configuration outside the supported space."""


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
            _coarse_axis(prior)

    @property
    def hyperpriors(self) -> dict[str, Distribution]:
        """The family's hyperparameters, in sampler order, with their priors."""
        names = HET_FAMILIES[self.het_family].hyper_names
        return dict(zip(names, (self.scale_hyperprior, self.shape_hyperprior)))


@dataclass(frozen=True)
class McmcConfig:
    """Chains and kept draws per chain, at least 2 draws in all for the
    summaries, and the seed of their streams.

    ``burn_in`` and ``thin`` are validated and recorded, but the draws are
    independent, so neither changes any draw.
    """

    chains: int = 4
    burn_in: int = 5000
    iterations: int = 20000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, least in (("chains", 1), ("burn_in", 1), ("iterations", 1), ("thin", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {v!r}")
        if self.chains * self.iterations < 2:
            raise ConfigError("chains x iterations give 1 draw, but the summaries need at least 2")


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
    ``quadrature`` describes the grids a fresh run drew from (the
    ``quadrature`` block of :func:`summary_dict`); it is ``None`` for draws
    read back from a file.
    """

    family: str
    table: np.ndarray = field(repr=False)
    analysis_ids: tuple[str, ...]
    model: ModelSpec | None = None
    config: McmcConfig | None = None
    quadrature: dict | None = field(default=None, repr=False)

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


def _variances(se2, offsets, tau):
    """Each study's sigma_ij^2 + tau_j^2 at per-analysis taus of shape (..., N)."""
    return se2 + np.repeat(np.square(tau), np.diff(offsets), axis=-1)


def _deviance(y, offsets, mu, v):
    """-2 log likelihood of all studies at per-analysis effects of shape
    (..., N) and study variances ``v`` (:func:`_variances`); the result has
    their leading shape."""
    sizes = np.diff(offsets)
    resid2 = np.square(y - np.repeat(mu, sizes, axis=-1))
    terms = np.add.reduceat(np.log(v) + resid2 / v, offsets[:-1], axis=-1)
    return terms.sum(axis=-1) + y.size * _LOG_2PI


# -- quadrature ----------------------------------------------------------------


class _CorpusTables:
    """The family-free tables of ``corpus`` under the effect prior of a
    :class:`ModelSpec`, all computed here: its analysis ids, its studies
    as :func:`_flatten` gives them, ``hi0``, the ``base`` tau grid and its
    :func:`_cell_likelihoods` (``cells``, ``last``, ``scale``, ``moments``).
    A fit builds its own; ``compare`` builds one for all its families."""

    def __init__(self, c: MetaAnalysisCollection, m: ModelSpec):
        self.corpus, self.analysis_ids = c, tuple(c.analysis_ids)
        self.mu_prior = Normal(m.effect_prior_mean, m.effect_prior_sd)
        self.y, self.se2, self.offsets = _flatten(c)
        self.hi0 = _reference_top(self.y, self.se2, self.offsets)
        self.base = _tau_grid(self.hi0, 0)
        with np.errstate(all="ignore"):
            tabulated = _cell_likelihoods(self.y, self.se2, self.offsets, self.mu_prior, self.base)
        self.cells, self.last, self.scale, self.moments = tabulated


def _cell_likelihoods(y, se2, offsets, mu_prior: Normal, nodes, first=None, scale=None):
    """(cells, N) table of L_j / exp(scale_j) averaged over the ends of each
    cell of ``nodes``, after the node values ``first`` if given; the last
    node's values; the scale, by default each analysis' largest log L_j;
    and a (2, N, nodes) table of the mean m_j(tau) of mu_j given tau_j =
    tau at each node, and of E[D_j | tau], analysis j's expected deviance
    over that conjugate normal of precision P_j(tau). Both come from the pooled sums of log L_j: with the effect
    prior N(m0, s0^2) as one more study, E[D_j | tau] = sum_i log 2 pi v_ij
    + ((y_ij - m_j)^2 + 1 / P_j) / v_ij = -2 log L_j - log(s0^2 P_j) - (m0 -
    m_j)^2 / s0^2 + 1 - 1 / (s0^2 P_j) + k_j log 2 pi, v_ij = sigma_ij^2 +
    tau^2. The analyses of one size are pooled at once, ``_BLOCK`` values
    at a time, with the studies on the slowest axis, so their sums are
    array adds."""
    sizes = np.diff(offsets)
    rows = 0 if first is None else len(first)
    n_cells = rows + nodes.size - 1
    table = np.empty((n_cells + 1, sizes.size), dtype=_LIKELIHOOD)
    table[:rows] = first
    scale = np.full(sizes.size, np.nan) if scale is None else scale
    cond = np.empty((2, sizes.size, nodes.size))
    prior_var = mu_prior.sd**2
    for k in np.unique(sizes):
        analyses = np.flatnonzero(sizes == k)
        step = max(1, _BLOCK // (max(1, nodes.size) * (k + 1)))
        for batch in np.split(analyses, range(step, analyses.size, step)):
            studies = offsets[batch, None] + np.arange(k)
            var = np.empty((k + 1, batch.size, nodes.size))
            np.add(se2[studies].T[:, :, None], np.square(nodes), out=var[:k])
            var[k] = prior_var  # the effect prior joins as one more study
            est = np.concatenate([y[studies], np.full((batch.size, 1), mu_prior.mean)], axis=1)
            loglik, total_w, mu_hat = _integrated_loglik(est[:, None, :], np.moveaxis(var, 0, -1), None)
            s0p = prior_var * total_w
            cond[0, batch] = mu_hat
            cond[1, batch] = -2.0 * loglik - np.log(s0p) - np.square(mu_prior.mean - mu_hat) / prior_var
            cond[1, batch] += 1.0 - 1.0 / s0p + k * _LOG_2PI
            loglik = loglik.T
            scale[batch] = np.where(np.isnan(scale[batch]), loglik.max(axis=0, initial=-np.inf), scale[batch])
            table[rows:, batch] = np.exp(loglik - scale[batch])
    last = table[n_cells:].copy()
    step = max(1, _BLOCK // sizes.size)  # a block reads the next one's first row before it changes
    for start in range(0, n_cells, step):
        block = slice(start, min(start + step, n_cells))
        table[block] += table[block.start + 1 : block.stop + 1]
        table[block] *= 0.5
    return table[:-1], last, scale, cond


def _marginals(fam: _Family, centre, nodes, cells, masses=None) -> np.ndarray:
    """(theta rows, N) table of m_j = sum_g M_g Lbar_jg over the ``cells``
    of ``nodes``, M_g the family's mass at each row of ``centre``, counted
    as 0 below the smallest normal float32 (a subnormal operand slows the
    product about twofold, and such a term is below 1e-38 of a unit mass);
    one float32 product per ``_ROW_BLOCK`` rows, each block's M_g written
    into the rows of ``masses`` if given. How the product groups its sums
    depends on the block's row count, so a theta cell's m_j depends, in
    its last bits and deterministically, on which cells share its block."""
    out = np.empty((len(centre), cells.shape[1]))
    for start in range(0, len(centre), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        hyper = [centre[rows, h : h + 1] for h in range(centre.shape[1])]
        cdf = fam.cdf(nodes, *hyper)
        mass = np.empty((len(cdf), len(cells)), cells.dtype) if masses is None else masses[rows]
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=mass)
        mass[mass < _TINY] = 0.0
        out[rows] = mass @ cells
    return out


def _chunks(rows: np.ndarray) -> list[np.ndarray]:
    """``rows`` in runs of ``_ROW_BLOCK``."""
    return np.split(rows, range(_ROW_BLOCK, rows.size, _ROW_BLOCK))


def _mixed(weight, marg, masses) -> np.ndarray:
    """sum_k weight_k / m_jk M_kg over theta rows k, one (N x rows) @
    (rows x cells) float32 product of the ``masses`` :func:`_marginals`
    wrote; a row of zero weight, which may have m_jk = 0, adds nothing.
    Factors below the smallest normal float32 count as 0: a subnormal
    operand slows the product about fivefold, and their terms are below
    1e-38 of a unit mass."""
    per_m = np.divide(weight[:, None], marg, out=np.zeros(marg.shape), where=weight[:, None] > 0.0)
    per_m[per_m < _TINY] = 0.0
    return per_m.T.astype(_LIKELIHOOD) @ masses


def _log_weights(priors, lo, hi, log_m) -> np.ndarray:
    """Log posterior masses of theta cells up to a constant: log prior mass
    (from the hyperprior cdfs) plus sum_j log m_j, ``log_m``."""
    for h, prior in enumerate(priors):
        log_m = log_m + np.log(prior.cdf(hi[:, h]) - prior.cdf(lo[:, h]))
    return log_m


def _scaled(log_w: np.ndarray) -> np.ndarray:
    top = log_w.max()
    if not np.isfinite(top):
        raise GridError("hyperparameter posterior vanished on the whole theta grid")
    return np.exp(log_w - top)


def _centre(lo, hi) -> np.ndarray:
    """Where a theta cell is weighed: its geometric centre, or its middle if it starts at 0."""
    return np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * hi)


def _tail_share(fam, centre, nodes, cells, marg, w) -> float:
    """The largest posterior share of a tau_j in the top 5% of the grid
    ``nodes``, whose ``cells`` hold its cell likelihoods."""
    top = int(np.searchsorted(nodes, 0.95 * nodes[-1]))
    tail = _marginals(fam, centre, nodes[top:], cells[top:])
    return float(np.max(w @ np.where(w[:, None] > 0.0, tail / marg, 0.0)) / w.sum())


def _coarse_axis(prior: Distribution) -> np.ndarray:
    """A hyperparameter's coarse cell edges: geometric by ``_COARSE_RATIO``
    from ``_THETA_FLOOR`` times its prior's median up to the top of the
    support, or the 1 - ``_TAIL_MASS`` quantile, after a cell [0, bottom] if
    the support starts at 0. A prior whose cells overflow is a ConfigError."""
    lo, hi = _hyper_support(prior)
    with np.errstate(over="ignore"):  # an overflow is an infinite quantile, refused below
        median = float(prior.quantile(0.5))
        hi = hi if math.isfinite(hi) else float(prior.quantile(1.0 - _TAIL_MASS))
    bottom = lo if lo > 0.0 else median * _THETA_FLOOR
    # a cell's centre is sqrt(lo hi), and the cell count log(hi / bottom)
    if not (bottom > 0.0 and hi * hi < math.inf and hi / bottom < math.inf):
        raise ConfigError(
            f"hyperprior {prior} has no theta cells in finite floats: its median is {median:.3g}, "
            f"its cells would run from {bottom:.3g} to its {1.0 - _TAIL_MASS:g} quantile {hi:.3g}"
        )
    n_cells = max(1, math.ceil(math.log(hi / bottom) / math.log(_COARSE_RATIO)))
    edges = np.geomspace(bottom, hi, n_cells + 1)
    return edges if lo > 0.0 else np.concatenate(([0.0], edges))


def _refine(lo, hi, parts):
    """Cut cell i into parts[i, h] parts along each axis h (1 keeps it, 0
    drops it) of equal ratio hi/lo, or halving toward 0 in a cell that
    starts there; returns the new edges and each new cell's parent."""
    count = parts.prod(axis=1)
    parent = np.repeat(np.arange(count.size), count)
    local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    new_lo, new_hi = np.empty((parent.size, lo.shape[1])), np.empty((parent.size, lo.shape[1]))
    for h in range(lo.shape[1]):
        k, a, b = parts[parent, h], lo[parent, h], hi[parent, h]
        i, local = local % k, local // k
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = [np.where(a > 0.0, a * (b / a) ** (j / k), b * 0.5 ** (k - j)) for j in (i, i + 1)]
        new_lo[:, h] = np.where(i == 0, a, edge[0])
        new_hi[:, h] = np.where(i + 1 == k, b, edge[1])
    return new_lo, new_hi, parent


def _quadrature(tables: _CorpusTables, m: ModelSpec, mixture: bool = False):
    """For the corpus of ``tables`` under the model ``m``, whose effect
    prior the tables must have been built under (else ``ValueError``):
    the tau grid as one (nodes, (cells, N) cell likelihoods) pair, and
    the theta cells' (cells, H) edges and posterior masses w_k, the largest
    1; with ``mixture`` also the (N, tau cells) float32 sum over the theta
    cells of (w_k / sum w) M_kg / m_jk, M_kg the family's masses and m_jk
    the marginals the weights came from, and the (2, N, nodes) conditional
    moments of :func:`_cell_likelihoods` as a list of node ranges, the base
    and then one per doubling.

    The base cells are the tables'; the loop over the grids of
    ``metaanalysis._tau_grids``, 0, 1, 2, ... extensions, stops at the
    first that :func:`_tail_share` passes against the coarse theta cells'
    posterior. The grids are nested, so each pass after the first tabulates
    only the nodes of its new doubling, from the last node's values, and
    adds their cells' marginals to the coarse cells' m_jk.

    Each hyperparameter's coarse cells are those of :func:`_coarse_axis`;
    where the axis ends at a quantile, a top cell that still holds
    ``_TAIL_MASS`` of the posterior is a ``GridError``. Refinement: each coarse cell
    with more than ``_SETTLE`` of the mass is cut along each axis until no
    band holds more than 1 / ``_BANDS[H]`` of that marginal, then every
    cell with more than 1 / ``_THETA_CELLS`` of the mass by its share. The
    new cells are weighed ``_ROW_BLOCK`` at a time, so a cell's m_jk, and
    its weight, depend in their last bits on which cells share its block.

    The mixture's sum follows the refinement: each cell's term is added
    with the masses its marginals were computed from, and a cell that is
    cut or dropped has its term, masses recomputed, taken out again, so no
    (theta cells x tau cells) table is held.
    """
    if tables.mu_prior != Normal(m.effect_prior_mean, m.effect_prior_sd):
        raise ValueError(f"corpus tables built under effect prior {tables.mu_prior}, not the model's")
    fam = HET_FAMILIES[m.het_family]
    priors = list(m.hyperpriors.values())
    studies = tables.y, tables.se2, tables.offsets, tables.mu_prior
    axes = [_coarse_axis(prior) for prior in priors]
    band = np.meshgrid(*[np.arange(e.size - 1) for e in axes], indexing="ij")
    band = np.stack([i.ravel() for i in band], axis=1)
    lo = np.stack([e[band[:, h]] for h, e in enumerate(axes)], axis=1)
    hi = np.stack([e[band[:, h] + 1] for h, e in enumerate(axes)], axis=1)
    centre = _centre(lo, hi)

    def rows(n_theta, n_tau):
        """Room for the masses M_kg of theta cells, if the mixture needs them."""
        return np.empty((n_theta, n_tau), dtype=_LIKELIHOOD) if mixture else None

    def weigh(lo, hi):
        """The marginals m_jk of refined theta cells on the final grid, and their masses if kept."""
        masses = rows(len(lo), nodes.size - 1)
        return _marginals(fam, _centre(lo, hi), nodes, cells, masses), masses

    with np.errstate(all="ignore"):
        cells, last, scale = tables.cells, tables.last, tables.scale
        masses, moments = [rows(len(centre), len(cells))], [tables.moments]
        marg = _marginals(fam, centre, tables.base, cells, masses[0])
        for nodes in _tau_grids(tables.hi0):
            if nodes.size > len(cells) + 1:  # each pass after the first adds one doubling's cells
                ext, last, _, more = _cell_likelihoods(*studies, nodes[len(cells) + 1 :], last, scale)
                masses.append(rows(len(centre), len(ext)))
                marg += _marginals(fam, centre, nodes[len(cells) :], ext, masses[-1])
                cells = np.concatenate([cells, ext])
                moments.append(more)
            dead = [tables.analysis_ids[j] for j in np.flatnonzero(~np.any(marg > 0.0, axis=0))]
            if dead:
                raise GridError(
                    f"analyses {dead} have no likelihood where the {m.het_family} family puts "
                    "heterogeneity under its hyperpriors: their heterogeneity is far beyond them"
                )
            w = _scaled(log_w := _log_weights(priors, lo, hi, np.log(marg).sum(axis=1)))
            if _tail_share(fam, centre, nodes, cells, marg, w) < _TAIL_MASS:
                break
        if mixture:  # the sum's terms are relative to the coarse cells' largest weight
            ref = log_w.max()
            mixed = np.concatenate([_mixed(np.exp(log_w - ref), marg, part) for part in masses], axis=1)
        del masses  # freed before the refinement weighs new cells
        for h, prior in enumerate(priors):
            top_mass = w[band[:, h] == axes[h].size - 2].sum()
            if not math.isfinite(_hyper_support(prior)[1]) and top_mass >= _TAIL_MASS * w.sum():
                raise GridError(
                    f"hyperparameter posterior mass does not decay: the top cell below the "
                    f"hyperprior's {1.0 - _TAIL_MASS:g} quantile holds {_TAIL_MASS:g} of it"
                )
        n_axes = lo.shape[1]
        share = w / w.sum()
        parts = np.stack([np.bincount(band[:, h], share)[band[:, h]] for h in range(n_axes)], 1)
        parts = np.ceil(parts * _BANDS[n_axes]).astype(np.int64)
        parts = np.where((share > _SETTLE)[:, None], np.maximum(parts, 1), (w > 0.0)[:, None])
        for _ in range(_REFINEMENTS):
            cut = parts.prod(axis=1) > 1
            if not cut.any():
                break
            if mixture:  # a cut or dropped cell's term leaves the sum
                for k in _chunks(np.flatnonzero((parts.prod(axis=1) != 1) & (np.exp(log_w - ref) > 0.0))):
                    marg, masses = weigh(lo[k], hi[k])
                    mixed -= _mixed(np.exp(log_w[k] - ref), marg, masses)
            lo, hi, parent = _refine(lo, hi, parts)
            new, log_w = cut[parent], log_w[parent]
            for k in _chunks(np.flatnonzero(new)):
                marg, masses = weigh(lo[k], hi[k])
                log_w[k] = _log_weights(priors, lo[k], hi[k], np.log(marg).sum(axis=1))
                if mixture:
                    mixed += _mixed(np.exp(log_w[k] - ref), marg, masses)
            w = _scaled(log_w)
            share = w / w.sum()
            parts = np.ceil((share * _THETA_CELLS) ** (1.0 / n_axes)).astype(np.int64)
            parts = np.where(share > 1.0 / _THETA_CELLS, np.maximum(parts, 2), w > 0.0)
            parts = np.repeat(parts[:, None], n_axes, axis=1)
    if mixture:
        mixed /= np.exp(log_w - ref).sum()
        return (nodes, cells), lo, hi, w, mixed, moments
    return (nodes, cells), lo, hi, w


def _inverse_cdf(cum: np.ndarray, u: np.ndarray):
    """Inverse cdf over cells of cumulative weights ``cum``: the cell g whose
    share [cum[g - 1], cum[g]) holds u cum[-1] for each ``u``, and the
    point's place in that share, in [0, 1). A cell of zero weight is never
    picked."""
    x = u * cum[-1]
    g = np.minimum(np.searchsorted(cum, x, side="right"), cum.size - 1)
    lower = np.where(g > 0, cum[g - 1], 0.0)
    share = cum[g] - lower
    pos = np.divide(x - lower, share, out=np.zeros(x.shape), where=share > 0.0)
    return g, np.clip(pos, 0.0, _BELOW_ONE)


def _cumulate(a: np.ndarray) -> np.ndarray:
    """Cumulative sums along the first axis, in place, by whole-slice adds:
    numpy's ``cumsum`` steps through a short axis one element at a time."""
    for i in range(1, len(a)):
        a[i] += a[i - 1]
    return a


def _descend(cum: np.ndarray, pos: np.ndarray):
    """One step down a tree of partial sums: for each row of ``cum`` (picks,
    children), the cumulative weights of a node's children, the child k
    whose share [cum[k - 1], cum[k]) holds pos cum[-1], and the place there,
    in [0, 1). Every row's total must be positive; a child of zero weight is
    never picked."""
    x = pos * cum[:, -1]
    k = np.zeros(x.size, dtype=np.intp)
    for i in range(cum.shape[1]):
        k += cum[:, i] <= x
    at = np.arange(k.size) * cum.shape[1] + k
    flat = cum.ravel()
    lower = np.where(k > 0, flat[at - 1], 0.0)
    return k, np.clip((x - lower) / (flat[at] - lower), 0.0, _BELOW_ONE)


def _tau_draws(fam: _Family, nodes, cells, centre, cell, u, tau) -> None:
    """Write into ``tau`` the tau_j draws for the uniforms ``u`` (draws, N)
    of draws in the theta cells ``cell``: a tau cell of ``nodes`` in
    proportion to M_g Lbar_jg at the cell's ``centre``, Lbar the (cells, N)
    table ``cells``, and the family's quantile inside it.

    The cell is picked down a three-level tree of partial sums (Devroye
    1986, *Non-Uniform Random Variate Generation*, ch. III): a block of
    ``_TAU_BLOCK`` cells by the block sums, one of its sub-blocks of
    ``_SUB_BLOCK`` cells by their sums, then a cell by its M_g Lbar_jg, so
    each pick reads about ten, eight and eight values. The table is padded
    with empty cells to whole blocks. For a batch of drawn theta cells one
    batched float32 product, (sub-blocks, cells, 8) @ (sub-blocks, 8, N),
    gives every sub-block sum, and the block sums are their totals. The
    cumulative sums are then laid out pick-major, one contiguous row per
    (drawn cell, analysis), and the cell likelihoods once per call as
    (analysis, sub-block, 8) rows, so each level of a pick gathers whole
    rows. A batch holds about 4 ``_BLOCK`` sub-block sums and a chunk about
    ``_BLOCK`` / 4 picks (a draw of one analysis each), so the working set
    stays near a MiB. Each drawn cell's arithmetic is its own, so a draw
    does not depend on which other cells were drawn."""
    n, n_cells, subs = u.shape[1], nodes.size - 1, _TAU_BLOCK // _SUB_BLOCK
    n_blocks = -(-n_cells // _TAU_BLOCK)
    n_subs = n_blocks * subs
    # the table padded to whole blocks as (sub-blocks, _SUB_BLOCK, N), and as
    # (N x sub-blocks, _SUB_BLOCK) rows, analysis-major
    table = np.zeros((n_subs, _SUB_BLOCK, n), dtype=_LIKELIHOOD)
    table.reshape(-1, n)[:n_cells] = cells
    lbar = table.transpose(2, 0, 1).reshape(n * n_subs, _SUB_BLOCK)
    per_batch = max(1, 4 * _BLOCK // (n_subs * n))
    per_chunk = max(1, _BLOCK // (4 * n))
    order = np.argsort(cell, kind="stable")
    drawn, first = np.unique(cell[order], return_index=True)
    first = np.append(first, order.size)
    for start in range(0, drawn.size, per_batch):
        batch = drawn[start : start + per_batch]
        hyper = centre[batch].T
        cdf = fam.cdf(nodes, *hyper[..., None])
        mass = np.zeros((batch.size, n_subs, _SUB_BLOCK), dtype=_LIKELIHOOD)
        mass.reshape(batch.size, -1)[:, :n_cells] = np.diff(cdf, axis=1)
        sums = np.matmul(mass.transpose(1, 0, 2), table)
        # (blocks, sub-blocks, cells x N) cumulative sub-block sums, and the
        # (blocks, cells x N) cumulative block sums, their totals; then both
        # pick-major: row r N + j of each is cell r and analysis j
        sub_cum = sums.reshape(n_blocks, subs, -1)
        _cumulate(np.moveaxis(sub_cum, 1, 0))
        block_rows = np.ascontiguousarray(_cumulate(sub_cum[:, -1].copy()).T)
        sub_rows = np.ascontiguousarray(sub_cum.transpose(2, 0, 1)).reshape(-1, subs)
        mass_rows = mass.reshape(-1, _SUB_BLOCK)
        draws = order[first[start] : first[start + batch.size]]
        for some in np.array_split(draws, 1 + draws.size // per_chunk):
            # one pick per draw and analysis: its theta cell's row in the
            # batch, its analysis, and their row in the pick-major sums
            row = np.repeat(np.searchsorted(batch, cell[some]), n)
            col = np.tile(np.arange(n), some.size)
            pick = row * n + col
            block, pos = _descend(np.take(block_rows, pick, axis=0), u[some].ravel())
            sub, pos = _descend(np.take(sub_rows, pick * n_blocks + block, axis=0), pos)
            sub += block * subs
            weight = np.take(lbar, col * n_subs + sub, axis=0)
            weight *= np.take(mass_rows, row * n_subs + sub, axis=0)
            g, pos = _descend(_cumulate(weight.T).T, pos)
            g += sub * _SUB_BLOCK
            below, above = cdf[row, g], cdf[row, g + 1]
            t = fam.quantile(below + pos * (above - below), *hyper[:, row])
            tau[some] = np.clip(t, nodes[g], nodes[g + 1]).reshape(some.size, n)


class PosteriorMixture(NamedTuple):
    """The posterior that :func:`run_hierarchical` draws from, as the
    tables of :func:`posterior_mixture`.

    ``mass[j, g]``, float32, is the posterior probability that tau_j lies
    in tau cell g, between ``nodes[g]`` and ``nodes[g + 1]``, mixed over the
    theta cells
    (edges ``lo``, ``hi``, masses ``weight``). ``mu``, ``tau`` and
    ``deviance`` are each analysis' posterior means of mu_j, tau_j and of
    its deviance D_j, -2 log likelihood of its studies."""

    family: str
    nodes: np.ndarray
    mass: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    deviance: np.ndarray


def posterior_mixture(
    c: MetaAnalysisCollection, m: ModelSpec | None = None, tables: _CorpusTables | None = None
) -> PosteriorMixture:
    """The law of the tau_j draws of ``run_hierarchical(c, m, cfg)``, for
    any ``cfg``, over the same quadrature tables, with no draw. ``tables``
    are the :class:`_CorpusTables` of ``c`` under ``m``'s effect prior,
    built here if not given; tables of another corpus object are a
    ``ValueError``.

    A draw picks theta cell k by its share w_k of the posterior mass, then
    tau cell g in proportion to M_kg Lbar_jg, M_kg the family's mass at the
    cell's centre; so tau_j lies in cell g with probability p_jg = Lbar_jg
    sum_k (w_k / m_jk) M_kg, a float32 product that :func:`_quadrature`
    sums as it weighs the theta cells. Given tau_j, mu_j is normal, so the
    means of mu_j and D_j are sums over the cells of p_jg times m_j(tau) and
    E[D_j | tau], tabulated with the cell likelihoods, averaged over the
    cell's ends; tau_j's takes the middle of each cell.
    """
    m = ModelSpec() if m is None else m
    if tables is None:
        tables = _CorpusTables(c, m)
    elif tables.corpus is not c:
        raise ValueError("corpus tables built for another corpus object")
    (nodes, cells), lo, hi, weight, mass, moments = _quadrature(tables, m, mixture=True)
    mass *= cells.T

    def mean(parts):
        """sum_g p_jg (h_jg + h_j,g+1) / 2 of a table h at the nodes, given in node ranges"""
        h = np.concatenate(parts, axis=1)
        return 0.5 * (np.einsum("jg,jg->j", mass, h[:, :-1]) + np.einsum("jg,jg->j", mass, h[:, 1:]))

    mu, dev = (mean(parts) for parts in zip(*moments))
    return PosteriorMixture(
        family=m.het_family,
        nodes=nodes,
        mass=mass,
        lo=lo,
        hi=hi,
        weight=weight,
        mu=mu,
        tau=mass @ (0.5 * (nodes[:-1] + nodes[1:])),
        deviance=dev,
    )


def _uniforms(cfg: McmcConfig, width: int):
    """Each chain's ``Generator(Philox)``, spawned from the seed, and its
    first (kept, ``width``) uniforms, one row per kept draw, stacked by
    chain."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    return rngs, np.stack([r.random((cfg.iterations, width)) for r in rngs])


def _hyper_draws(fam: _Family, lo, hi, weight, u, theta, tau_star) -> np.ndarray:
    """Write into ``theta`` (chains, kept, H) and ``tau_star`` (chains,
    kept) the draws for the rows of uniforms ``u``: a theta cell by inverse
    cdf on u[..., 0], uniform within it by the place there and u[..., 1:H],
    and tau* from f(. | theta) by u[..., -1]. Returns each draw's theta
    cell."""
    chains, kept, n_hyper = theta.shape
    cell, pos = _inverse_cdf(np.cumsum(weight), u[..., 0].ravel())
    places = np.column_stack([pos, u[..., 1:n_hyper].reshape(chains * kept, -1)])
    theta[:] = np.clip(lo[cell] + places * (hi - lo)[cell], lo[cell], hi[cell]).reshape(chains, kept, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau_star[:] = fam.quantile(u[..., -1], *np.moveaxis(theta, -1, 0))
    return cell


def predictive_draws(mix: PosteriorMixture, cfg: McmcConfig | None = None) -> np.ndarray:
    """The (chains, kept) tau* draws of ``run_hierarchical(c, m, cfg)``, bit
    for bit, where ``mix`` is ``posterior_mixture(c, m)``: the same streams
    and rows of uniforms, and only theta and tau* drawn from them."""
    cfg = McmcConfig() if cfg is None else cfg
    fam = HET_FAMILIES[mix.family]
    n_hyper = len(fam.hyper_names)
    u = _uniforms(cfg, n_hyper + mix.mass.shape[0] + 1)[1]
    draws = np.empty((cfg.chains, cfg.iterations, n_hyper + 1))
    _hyper_draws(fam, mix.lo, mix.hi, mix.weight, u, draws[..., :n_hyper], draws[..., -1])
    return draws[..., -1]


def run_hierarchical(
    c: MetaAnalysisCollection, m: ModelSpec | None = None, cfg: McmcConfig | None = None
) -> PosteriorSamples:
    """Draw the joint posterior of a collection of meta-analyses.

    Returns independent draws of the hyperparameter(s), every (mu_j,
    tau_j), the predictive heterogeneity tau*, and each draw's deviance.
    Deterministic given (collection, model, config including seed); a
    posterior the quadrature cannot cover raises ``GridError``.
    """
    m = ModelSpec() if m is None else m
    cfg = McmcConfig() if cfg is None else cfg
    fam = HET_FAMILIES[m.het_family]
    tables = _CorpusTables(c, m)
    grid, lo, hi, weight = _quadrature(tables, m)
    y, se2, offsets = tables.y, tables.se2, tables.offsets
    n, n_hyper, chains, kept = c.n_analyses, len(fam.hyper_names), cfg.chains, cfg.iterations

    # each chain's stream gives each draw a row of uniforms (the theta cell,
    # the further hyperparameters' places, tau_j, tau*), then the normals
    # of the mu_j
    rngs, u = _uniforms(cfg, n_hyper + n + 1)
    z = np.stack([r.standard_normal((kept, n)) for r in rngs])

    # one row per kept draw, in the column order of parameter_names()
    table = np.empty((chains, kept, n_hyper + 2 * n + 2))
    theta, mu, tau = table[..., :n_hyper], table[..., n_hyper : n_hyper + n], table[..., -2 - n : -2]
    cell = _hyper_draws(fam, lo, hi, weight, u, theta, table[..., -2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_tau = u[..., n_hyper:-1].reshape(-1, n)
        _tau_draws(fam, *grid, _centre(lo, hi), cell, u_tau, table.reshape(chains * kept, -1)[:, -2 - n : -2])
    nodes = grid[0].size
    del u, grid  # the largest tables, which the rest does not read

    # mu_j | tau_j: exact conjugate normal draws; then each draw's deviance
    starts = offsets[:-1]
    prior_prec = 1.0 / m.effect_prior_sd**2
    step = max(1, _BLOCK // (chains * y.size))
    for k0 in range(0, kept, step):
        rows = slice(k0, k0 + step)
        v = _variances(se2, offsets, tau[:, rows])
        wgt = 1.0 / v
        prec = prior_prec + np.add.reduceat(wgt, starts, axis=-1)
        mean = (m.effect_prior_mean * prior_prec + np.add.reduceat(wgt * y, starts, axis=-1)) / prec
        mu[:, rows] = mean + z[:, rows] / np.sqrt(prec)
        table[:, rows, -1] = _deviance(y, offsets, mu[:, rows], v)

    names = fam.hyper_names
    return PosteriorSamples(
        family=m.het_family,
        table=table,
        analysis_ids=tuple(c.analysis_ids),
        model=m,
        config=cfg,
        quadrature={
            "tau_nodes": nodes,
            "theta_cells": {name: int(np.unique(lo[:, h]).size) for h, name in enumerate(names)},
            "theta_range": {n: [float(lo[:, h].min()), float(hi[:, h].max())] for h, n in enumerate(names)},
        },
    )


# -- summaries and diagnostics ------------------------------------------------


def summarize_samples(draws) -> dict[str, float]:
    """Empirical {mean, sd, median, q95, q99} of a draw sequence.

    Quantiles use linear (type-7) interpolation; sd is the sample standard
    deviation. Requires at least two values.
    """
    return _summaries(np.asarray(draws, dtype=float).reshape(1, -1))[0]


def _summaries(x: np.ndarray) -> list[dict[str, float]]:
    """:func:`summarize_samples` of each row of ``x`` (columns, draws), in
    one pass over all rows; a contiguous row gives the same bits as the
    column alone."""
    if x.shape[1] < 2:
        raise ValueError(f"need at least 2 draws, got {x.shape[1]}")
    stats = np.mean(x, axis=1), np.std(x, axis=1, ddof=1), *np.quantile(x, [0.5, 0.95, 0.99], axis=1)
    return [dict(zip(_SUMMARY_COLUMNS, map(float, row))) for row in zip(*stats)]


def _predictive_summary(family: str, draws: np.ndarray) -> dict[str, float | None]:
    """:func:`summarize_samples` of the predictive draws of a ``family``
    fit, with the mean and sd the family does not have (the half-Cauchy has
    neither) as ``None``: the draws' values would be unstable noise."""
    summary = summarize_samples(draws)
    record = HET_FAMILIES[family]
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


def split_rhat(x: np.ndarray):
    """Split-chain potential scale reduction factor for (chains, n) draws, or
    for each trailing column of a (chains, n, ...) table at once: each chain
    cut into a first and a last half of n // 2 draws, W their mean
    within-half variance, B the between-half variance and var+ = (n_half -
    1) / n_half W + B / n_half. NaN below 4 draws per chain, infinite when
    every half-chain is constant but the halves differ. A (chains, n) input
    gives a float; a table gives an array of its trailing shape, each value
    bit-equal to the call on that column alone."""
    x = np.asarray(x, dtype=float)
    chains, n = x.shape[:2]
    half = n // 2
    cols = x.reshape(chains, n, math.prod(x.shape[2:]))
    rhat = np.full(cols.shape[-1], math.nan)
    # below 4 draws per chain every value stays NaN; columns per pass: a
    # pass's copies hold at most 16 _BLOCK values, as larger ones cost more
    # to allocate than the per-pass overhead saves
    n_cols = cols.shape[-1] if half >= 2 else 0
    step = max(1, 16 * _BLOCK // max(1, chains * n))
    for j in range(0, n_cols, step):
        # the half-chains of each column as contiguous rows, so each row's
        # sums run as they do for a column alone
        rows = np.moveaxis(cols[..., j : j + step], -1, 0)
        h = np.empty((len(rows), 2 * chains, half))
        np.concatenate([rows[..., :half], rows[..., n - half :]], axis=1, out=h)
        w = h.var(axis=-1, ddof=1).mean(axis=-1)
        b = half * h.mean(axis=-1).var(axis=-1, ddof=1)
        var_plus = (half - 1) / half * w + b / half
        with np.errstate(divide="ignore", invalid="ignore"):
            rhat[j : j + step] = np.where(w == 0.0, np.where(var_plus == 0.0, 1.0, math.inf), np.sqrt(var_plus / w))
    return float(rhat[0]) if x.ndim == 2 else rhat.reshape(x.shape[2:])


def diagnostics(s: PosteriorSamples) -> tuple[dict[str, dict], list[str]]:
    """Split-R-hat per parameter, as ``({name: {"rhat"}}, warnings)``.

    The draws are independent, so a parameter's Monte Carlo standard error
    is its sd / sqrt(chains x kept), and one run-level warning flags fewer
    than 400 draws in all. A single chain gets the R-hat of its two halves.
    An R-hat that is not finite is reported as ``None``, with a warning
    that says why; R-hat > 1.01 is flagged.
    """
    entries = {}
    warns = []
    n_draws = s.n_chains * s.n_kept
    if n_draws < 400:
        warns.append(f"{n_draws} draws ({s.n_chains} chains x {s.n_kept} kept) < 400")
    for name, rhat in zip(s.parameter_names(), split_rhat(s.table).tolist()):
        if math.isnan(rhat):
            warns.append(f"{name}: split-Rhat undefined with {s.n_kept} draws per chain (needs 4)")
            rhat = None
        elif rhat == math.inf:
            warns.append(f"{name}: split-Rhat infinite: every half-chain is constant, the halves differ")
            rhat = None
        elif rhat > 1.01:
            warns.append(f"{name}: split-Rhat {rhat:.3f} > 1.01")
        entries[name] = {"rhat": rhat}
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
    quadrature grids of a fresh run, and one list of warnings (diagnostics,
    hyperparameters piled up at a bound)."""
    draws = np.ascontiguousarray(s.table.reshape(-1, s.table.shape[-1]).T)
    params = dict(zip(s.parameter_names(), _summaries(draws)))
    doc = {
        "family": s.family,
        "n_analyses": s.n_analyses,
        "chains": s.n_chains,
        "kept_iterations": s.n_kept,
        "backend": BACKEND,
        "parameters": params,
    }
    doc["diagnostics"], warns = diagnostics(s)
    if s.quadrature is not None:
        doc["quadrature"] = s.quadrature
    if s.model is not None:
        warns += _bound_warnings(s)
    doc["warnings"] = warns
    return doc
