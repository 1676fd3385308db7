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
   by maximum likelihood (each family's likelihood equations: a closed
   form, one monotone root, or a one-dimensional profile) or by moment
   inversion.

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
from scipy import special as sc

from .dist import (
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
    summarize_samples,
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
    """A direct fit's likelihood has no maximum, or its solver did not
    converge."""


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
    if statistic not in ("mean", "median", "q95"):
        raise ValueError(f"unknown statistic {statistic!r}; choose mean, median or q95")
    return summarize_samples(draws)[statistic]


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
#: family's limit (half-normal, exponential) and is reported as that limit; a
#: half-t df below its reciprocal is a likelihood with no maximum
_ML_LIMIT = 1e4
#: the profile searches reach one e-fold past the limits, in log df or log scale
_LOG_REACH = math.log(_ML_LIMIT) + 1.0
#: Newton steps allowed to a scale equation
_NEWTON_STEPS = 100
#: the half-Cauchy, half-t and Lomax fits square or divide the draws in units
#: of the largest, so their positive draws may span at most this many decades
_SPAN_DECADES = 150


def _unit_squares(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest draw and the squares of the draws in its units, so that
    no square overflows."""
    top = float(x.max())
    return top, np.square(x / top)


def _rms(x: np.ndarray) -> float:
    """√mean(x²), exact for constant draws."""
    top, q = _unit_squares(x)
    return top * math.sqrt(float(np.mean(q)))


def _scale_root(q: np.ndarray, target: float, t: float) -> float:
    """The log u at which Σ q/(q + u) = ``target``, by Newton's method in
    log u from ``t``.

    The sum falls from the count of positive q to 0 as u rises, so the root
    exists for a target between. A step is at most a stride that starts at
    2 and doubles each time it binds, and once the root is bracketed a step
    that leaves the bracket halves it.
    """
    lo, hi, stride = -math.inf, math.inf, 2.0
    for _ in range(_NEWTON_STEPS):
        w = q / (q + math.exp(t))
        excess = float(w.sum()) - target
        if excess == 0.0:
            return t
        if excess > 0.0:
            lo = t
        else:
            hi = t
        slope = float(np.dot(w, 1.0 - w))
        step = excess / slope if slope > 0.0 else math.inf
        if abs(step) > stride:
            step = math.copysign(stride, excess)
            stride *= 2.0
        if abs(step) < 1e-12:
            return t + step
        t += step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    raise FitError(f"the scale equation did not converge in {_NEWTON_STEPS} Newton steps")


def _no_maximum(family: str, n: int, positive: int, limit: str) -> FitError:
    return FitError(
        f"ML fit of {family!r} has no maximum: {n - positive} of {n} draws are exactly 0, "
        f"so the likelihood grows without bound as {limit} -> 0"
    )


def _half_cauchy_ml(x: np.ndarray) -> HalfCauchy:
    """The scale solves Σ x²/(x² + s²) = n/2."""
    positive = np.count_nonzero(x)
    if 2 * positive <= x.size:
        raise _no_maximum("half-cauchy", x.size, positive, "the scale")
    top, q = _unit_squares(x)
    log_u = _scale_root(q, 0.5 * x.size, math.log(float(np.median(q))))
    return HalfCauchy(top * math.exp(0.5 * log_u))


def _bounded_max(neg_profile, lo: float, hi: float) -> float:
    """The point of [lo, hi] where a profile log likelihood, given as its
    negative, is highest."""
    from scipy import optimize  # here, not at import: it adds ~0.4 s to every command's start-up

    res = optimize.minimize_scalar(neg_profile, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8})
    return float(res.x)


def _half_t_ml(x: np.ndarray) -> Distribution:
    """Profile over log df; at each df the scale solves
    Σ x²/(x² + df s²) = n/(df + 1), from the last solve's scale."""
    n = x.size
    positive = np.count_nonzero(x)
    if positive * (1.0 + math.exp(-_LOG_REACH)) <= n:
        raise _no_maximum("half-t", n, positive, "df and the scale")
    top, q = _unit_squares(x)
    log_s2 = math.log(float(np.mean(q)))  # the half-normal's scale to start

    def scale_at(log_df: float) -> float:
        nonlocal log_s2
        log_s2 = _scale_root(q, n / (1.0 + math.exp(log_df)), log_s2 + log_df) - log_df
        return log_s2

    def neg_profile(log_df: float) -> float:
        df = math.exp(log_df)
        log_u = scale_at(log_df) + log_df
        tail = float(np.sum(np.log1p(q / math.exp(log_u))))
        return n * (float(sc.betaln(0.5 * df, 0.5)) + 0.5 * log_u) + 0.5 * (df + 1.0) * tail

    log_df = _bounded_max(neg_profile, -_LOG_REACH, _LOG_REACH)
    df = math.exp(log_df)
    if df > _ML_LIMIT:
        return HalfNormal(_rms(x))
    if df < 1.0 / _ML_LIMIT:
        raise FitError(f"ML fit of 'half-t' has no maximum: the likelihood rises as df -> 0 (df {df:.3g})")
    return HalfStudentT(df, top * math.exp(0.5 * scale_at(log_df)))


def _lomax_ml(x: np.ndarray) -> Distribution:
    """Profile over log scale; at each scale the shape is
    n / Σ log1p(x/scale)."""
    n = x.size
    top = float(x.max())
    z = x / top
    least = float(z[z > 0.0].min())

    def tail(log_scale: float) -> float:
        return float(np.sum(np.log1p(z * math.exp(-log_scale))))

    def neg_profile(log_scale: float) -> float:
        s = tail(log_scale)
        return n * (math.log(s) + log_scale) + s

    # the shape exceeds scale / mean(z), so it passes the limit below the top
    log_scale = _bounded_max(neg_profile, math.log(least) - 1.0, math.log(float(np.mean(z))) + _LOG_REACH)
    shape = n / tail(log_scale)
    if shape > _ML_LIMIT:
        return Exponential(float(np.mean(x)))
    if log_scale < math.log(least):
        raise FitError(
            f"ML fit of 'lomax' has no maximum: the likelihood rises as the scale -> 0 "
            f"(scale {top * math.exp(log_scale):.3g} below the least positive draw {top * least:.3g})"
        )
    return Lomax(shape, top * math.exp(log_scale))


def _ml_fit(x: np.ndarray, family: str) -> Distribution:
    """The maximum-likelihood member of ``family`` for the draws ``x``, or
    the family's limit where the likelihood rises toward it."""
    if family == "half-normal":
        return HalfNormal(_rms(x))
    if family == "exp":
        return Exponential(float(np.mean(x)))
    if family == "log-normal":
        zeros = x.size - np.count_nonzero(x)
        if zeros:
            raise InfeasibleError(
                f"{zeros} of {x.size} draws are exactly 0, where the log-normal has no density"
            )
        lx = np.log(x)
        if lx.min() == lx.max():
            raise InfeasibleError(f"no spread in log draws: every draw is {float(x[0])!r}")
        return LogNormal(float(np.mean(lx)), float(np.std(lx)))
    span = math.log10(float(x.max())) - math.log10(float(x[x > 0.0].min()))
    if span > _SPAN_DECADES:
        raise InfeasibleError(
            f"the positive draws span {span:.0f} orders of magnitude; a {family} fit "
            f"takes at most {_SPAN_DECADES}"
        )
    if family == "half-cauchy":
        return _half_cauchy_ml(x)
    if family == "half-t":
        return _half_t_ml(x)
    return _lomax_ml(x)


def fit_predictive_ml(draws, family: str, source: str = "") -> PriorSpec:
    """Route 3a: maximum likelihood on the predictive draws.

    Each family solves its own likelihood equations. The half-normal (scale
    √mean x²), exponential (scale mean x) and log-normal (the mean and sd of
    log x) have closed forms. The half-Cauchy's scale is the one root of
    Σ x²/(x² + s²) = n/2. The half-t maximizes its profile likelihood over
    log df, its scale a Newton root at each df; the Lomax maximizes its
    profile over log scale, its shape n / Σ log1p(x/scale) at each. A half-t
    whose df, or a Lomax whose shape, comes out above 10^4 has run off to
    its limit: it is returned as the half-normal or exponential ML fit with
    a note. A likelihood with no maximum (too many zero draws, or a half-t
    df or Lomax scale running to 0) raises :class:`FitError`.
    """
    x = np.asarray(draws, dtype=float).ravel()
    if x.size < 1000:
        raise InfeasibleError(f"need at least 1000 draws for a direct fit, got {x.size}")
    if family not in FIT_FAMILIES:
        raise ValueError(f"unsupported fit family {family!r}; choose from {FIT_FAMILIES}")
    if not (x.min() >= 0.0 and math.isfinite(x.max())):
        raise InfeasibleError("a direct fit needs finite, nonnegative draws")
    if x.max() == 0.0:
        raise InfeasibleError("every draw is 0: no member of a fit family has all its mass at 0")
    dist = _ml_fit(x, family)
    note = None
    if family == "half-t" and isinstance(dist, HalfNormal):
        note = f"degenerate fit: half-t df > {_ML_LIMIT:g}, half-normal limit"
    elif family == "lomax" and isinstance(dist, Exponential):
        note = f"degenerate fit: lomax shape > {_ML_LIMIT:g}, exponential limit"
    return PriorSpec(
        distribution=dist,
        method="direct_fit_ml",
        source=source,
        note=note,
        log_likelihood=float(np.sum(dist.log_density(x))),
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
    rows = [{"label": "MCMC", **_predictive_summary(s.family, s.predictive)}]
    rows += [{"label": spec.text(), **_distribution_summary(spec.distribution)} for spec in specs]
    return rows


def format_approximation_table(rows: list[dict]) -> str:
    label_w = max([len("prior")] + [len(r["label"]) for r in rows])
    lines = [f"{'prior'.ljust(label_w)}  {_SUMMARY_HEADING}"]
    lines += [f"{r['label'].ljust(label_w)}  {_summary_cells(r)}" for r in rows]
    return "\n".join(lines)
