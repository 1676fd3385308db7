"""Condense posterior output into communicable parametric heterogeneity priors.

Three routes:

1. point estimate — freeze the heterogeneity family at a posterior
   statistic of its hyperparameter(s) (the q95 variant is the
   deliberately conservative choice);
2. mixture match — use the analytic scale-mixture identities: a
   half-normal with uncertain scale becomes a half-Student-t, an
   exponential becomes a Lomax, a log-normal absorbs the location
   uncertainty into an inflated shape;
3. direct fit — fit a chosen family to the predictive draws themselves,
   by maximum likelihood (simplex search on log-reparametrized
   parameters) or by moment inversion.

The published form of a prior is rounded to 2 decimals (two significant
digits for a parameter that would round to 0); the unrounded parameters
are kept alongside.

Each prior is judged by :func:`approximation_table`, which sets its mean,
sd, median, 95% and 99% quantiles beside those of the predictive draws:
the statistics of ``sampler.summarize_samples``, less the mean and sd the
fitted family does not have, as one dict per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    _FAMILIES,
    Distribution,
    Exponential,
    HalfCauchy,
    HalfNormal,
    HalfStudentT,
    InfeasibleError,
    LogNormal,
    Lomax,
    format_distribution,
    half_t_moment_fit,
)
from .sampler import (
    _SUMMARY_HEADING,
    HET_FAMILIES,
    PosteriorSamples,
    _distribution_summary,
    _predictive_summary,
    _summary_cells,
)

__all__ = [
    "PriorSpec",
    "FitError",
    "FIT_FAMILIES",
    "point_estimate_prior",
    "mixture_match_prior",
    "fit_predictive_ml",
    "fit_predictive_moments",
    "approximation_table",
    "prior_to_dict",
    "format_approximation_table",
]


class FitError(RuntimeError):
    """A direct fit did not converge within its evaluation budget."""


#: decimals of a prior's published parameters
_ROUNDING = 2


@dataclass(frozen=True)
class PriorSpec:
    """A condensed heterogeneity prior plus how it was obtained.

    ``method`` is one of ``point_estimate(<statistic>)``,
    ``mixture_match``, ``direct_fit_ml``, ``direct_fit_moments``.
    """

    distribution: Distribution
    method: str
    source: str = ""
    note: str | None = None
    log_likelihood: float | None = None

    def rounded_params(self) -> tuple[float, ...]:
        """Parameters as published: ``_ROUNDING`` decimals, except that a
        nonzero value which would round to 0 keeps two significant digits
        (a zero scale is no distribution)."""
        out = []
        for p in self.distribution._params():
            r = round(float(p), _ROUNDING)
            out.append(r if r != 0.0 or p == 0.0 else float(f"{p:.2g}"))
        return tuple(out)

    def rounded_distribution(self) -> Distribution:
        return type(self.distribution)(*self.rounded_params())

    def text(self) -> str:
        """Canonical (rounded, communicable) text form."""
        return format_distribution(self.rounded_distribution())


def prior_to_dict(prior: PriorSpec | Distribution) -> dict:
    """JSON record of a prior.  A prior as given (a bare distribution) is
    its family, parameters and exact text; a condensed prior adds its
    rounded form, method and provenance."""
    d = prior if isinstance(prior, Distribution) else prior.distribution
    out = {"family": d.token, "params": [float(p) for p in d._params()], "text": format_distribution(d)}
    if d is prior:
        return out
    out |= {
        "rounded": list(prior.rounded_params()),
        "text": prior.text(),
        "method": prior.method,
        "source": prior.source,
        "rounding": _ROUNDING,
    }
    if prior.note is not None:
        out["note"] = prior.note
    if prior.log_likelihood is not None:
        out["log_likelihood"] = prior.log_likelihood
    return out


def _statistic(draws: np.ndarray, statistic: str) -> float:
    x = np.asarray(draws, dtype=float).ravel()
    if statistic == "mean":
        return float(np.mean(x))
    if statistic == "median":
        return float(np.quantile(x, 0.5))
    if statistic == "q95":
        return float(np.quantile(x, 0.95))
    raise ValueError(f"unknown statistic {statistic!r}; choose mean, median or q95")


def point_estimate_prior(s: PosteriorSamples, statistic: str = "mean", source: str = "") -> PriorSpec:
    """Route 1: the conditional family frozen at a hyperparameter statistic."""
    note = "conservative" if statistic == "q95" else None
    hyper = [_statistic(s.hyper[name], statistic) for name in s.hyper_names]
    dist = HET_FAMILIES[s.family].distribution(*hyper)
    return PriorSpec(
        distribution=dist, method=f"point_estimate({statistic})", source=source, note=note
    )


def mixture_match_prior(s: PosteriorSamples, source: str = "") -> PriorSpec:
    """Route 2: analytic match of the hyperparameter-uncertainty mixture,
    by the family's ``mixture`` rule in :data:`~hetprior.sampler.HET_FAMILIES`."""
    rule = HET_FAMILIES[s.family].mixture
    if rule is None:
        supported = ", ".join(name for name, fam in HET_FAMILIES.items() if fam.mixture is not None)
        raise InfeasibleError(
            f"no analytic mixture match for the {s.family!r} family (supported: {supported})"
        )
    dist, note = rule(*(s.hyper[name].ravel() for name in s.hyper_names))
    return PriorSpec(distribution=dist, method="mixture_match", source=source, note=note)


# -- direct fits ---------------------------------------------------------------

#: families the direct fits (ML and moments) accept
FIT_FAMILIES = ("half-normal", "half-t", "exp", "half-cauchy", "log-normal", "lomax")

_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: an ML fit whose half-t df or Lomax shape exceeds this has run off to the
#: family's limit (half-normal, exponential) and is reported as that limit
_ML_LIMIT = 1e4


def _moment_start(x: np.ndarray, family: str) -> Distribution:
    """Starting point for the ML search: the moment fit, except for the
    half-Cauchy (no moments: the median sets the scale) and the log-normal
    (moments of log x); a fixed-shape half-t or Lomax at the sample mean
    where the moments are out of the family's reach."""
    if family == "half-cauchy":
        return HalfCauchy(float(np.quantile(x, 0.5)))
    if family == "log-normal":
        lx = np.log(x[x > 0.0])
        return LogNormal(float(np.mean(lx)), max(float(np.std(lx)), 1e-6))
    try:
        return _moment_fit(x, family)
    except InfeasibleError:
        mean = float(np.mean(x))
        if family == "half-t":
            return HalfStudentT(50.0, mean / _ROOT_2_OVER_PI)
        return Lomax(3.0, 2.0 * mean)


def _pack(d: Distribution) -> np.ndarray:
    """Unconstrained parameter vector (logs of positive parameters)."""
    if isinstance(d, LogNormal):
        return np.array([d.mu, math.log(d.sigma)])
    return np.log(np.asarray(d._params(), dtype=float))


def _unpack(family: str, v: np.ndarray) -> Distribution:
    """Inverse of :func:`_pack`."""
    if family == "log-normal":
        return LogNormal(v[0], math.exp(v[1]))
    return _FAMILIES[family](*(math.exp(p) for p in v))


def fit_predictive_ml(draws, family: str, source: str = "") -> PriorSpec:
    """Route 3a: maximum likelihood on the predictive draws.

    Simplex (Nelder-Mead) search over log-reparametrized parameters,
    starting from the moment estimate, with a 10^4-evaluation budget. A
    half-t fit whose df, or a Lomax fit whose shape, ends above 10^4 has
    run off to its limit, converged or not: it is returned as
    half-normal(scale) or exp(scale/shape) with a note, and the log
    likelihood is the limit's.
    """
    x = np.asarray(draws, dtype=float).ravel()
    if x.size < 1000:
        raise InfeasibleError(f"need at least 1000 draws for a direct fit, got {x.size}")
    if family not in FIT_FAMILIES:
        raise ValueError(f"unsupported fit family {family!r}; choose from {FIT_FAMILIES}")

    def neg_ll(v):
        d = _unpack(family, v)
        ll = d.log_density(x)
        total = float(np.sum(ll))
        return math.inf if math.isnan(total) else -total

    from scipy import optimize  # here, not at import: it adds ~0.4 s to every command's start-up

    start = _pack(_moment_start(x, family))
    res = optimize.minimize(
        neg_ll,
        start,
        method="Nelder-Mead",
        options={"maxfev": 10_000, "xatol": 1e-8, "fatol": 1e-10},
    )
    dist = _unpack(family, res.x)
    # past the limit the likelihood is flat along df or shape, so the search
    # may also stop there without converging
    note = None
    if family == "half-t" and dist.df > _ML_LIMIT:
        note = f"degenerate fit: half-t df {dist.df:.3g} > {_ML_LIMIT:g}, half-normal limit"
        dist = HalfNormal(dist.scale)
    elif family == "lomax" and dist.shape > _ML_LIMIT:
        note = f"degenerate fit: lomax shape {dist.shape:.3g} > {_ML_LIMIT:g}, exponential limit"
        dist = Exponential(dist.scale / dist.shape)
    if note is None and not res.success:
        raise FitError(
            f"ML fit of {family!r} did not converge: {res.message} "
            f"(evaluations: {res.nfev}, last point: {res.x.tolist()})"
        )
    log_likelihood = -float(res.fun) if note is None else float(np.sum(dist.log_density(x)))
    return PriorSpec(
        distribution=dist,
        method="direct_fit_ml",
        source=source,
        note=note,
        log_likelihood=log_likelihood,
    )


def _lomax_from_moments(mean: float, sd: float) -> Lomax:
    """Lomax with the given mean and sd (needs cv > 1)."""
    cv2 = (sd / mean) ** 2
    if cv2 <= 1.0:
        raise InfeasibleError(
            f"sample cv {math.sqrt(cv2):.4g} <= 1 is not attainable by a Lomax "
            "with finite variance; an exponential fit may be appropriate"
        )
    shape = 2.0 * cv2 / (cv2 - 1.0)
    return Lomax(shape=shape, scale=mean * (shape - 1.0))


def _moment_fit(x: np.ndarray, family: str) -> Distribution:
    """The member of ``family`` whose mean and sd are those of ``x``."""
    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1))
    if family == "half-normal":
        return HalfNormal(mean / _ROOT_2_OVER_PI)
    if family == "exp":
        return Exponential(mean)
    if family == "half-t":
        return half_t_moment_fit(mean, sd)  # raises InfeasibleError for cv <= half-normal limit
    if family == "lomax":
        return _lomax_from_moments(mean, sd)
    if family == "log-normal":
        sigma = math.sqrt(math.log1p((sd / mean) ** 2))
        return LogNormal(mu=math.log(mean) - sigma**2 / 2.0, sigma=sigma)
    if family == "half-cauchy":
        raise InfeasibleError("half-cauchy has no defined moments; a moment fit is impossible")
    raise ValueError(f"unsupported fit family {family!r}")


def fit_predictive_moments(draws, family: str, source: str = "") -> PriorSpec:
    """Route 3b: invert the family's first two moments at the sample values."""
    x = np.asarray(draws, dtype=float).ravel()
    if x.size < 2:
        raise InfeasibleError(f"need at least 2 draws, got {x.size}")
    return PriorSpec(distribution=_moment_fit(x, family), method="direct_fit_moments", source=source)


# -- comparison table ----------------------------------------------------------


def approximation_table(specs: list[PriorSpec], s: PosteriorSamples) -> list[dict]:
    """A first row labelled ``MCMC`` with the statistics of the predictive
    draws of ``s`` (the mean and sd its family does not have are ``None``,
    as in ``compare``), then one ``{"label": ..., **summary}`` row per
    prior: its closed-form mean and sd (``None`` where the family has
    none) and its median, 95% and 99% quantiles, under its rounded text as
    the label."""
    if not specs:
        raise ValueError("need at least one prior spec")
    rows = [{"label": "MCMC", **_predictive_summary(s)}]
    rows += [{"label": spec.text(), **_distribution_summary(spec.distribution)} for spec in specs]
    return rows


def format_approximation_table(rows: list[dict]) -> str:
    label_w = max([len("prior")] + [len(r["label"]) for r in rows])
    lines = [f"{'prior'.ljust(label_w)}  {_SUMMARY_HEADING}"]
    lines += [f"{r['label'].ljust(label_w)}  {_summary_cells(r)}" for r in rows]
    return "\n".join(lines)
