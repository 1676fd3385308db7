"""Parametric distributions for heterogeneity modelling.

Provides the distribution families used as heterogeneity models, hyperpriors
and condensed priors (half-normal, half-Student-t, exponential, half-Cauchy,
log-normal, Lomax, scaled inverse chi, inverse gamma, normal, uniform),
each with log-density, cdf, quantile, closed-form mean and sd, and
sampling, plus the half-normal and exponential scale-mixture matching rules:

* a half-normal scale mixture is matched by a half-Student-t whose
  degrees of freedom are pinned down by the scale's coefficient of
  variation (via the scaled inverse chi distribution), and
* an exponential scale mixture is matched by a Lomax distribution
  (inverse-gamma mixing). Each family's rule, and the log-normal's
  (an inflated shape), is its ``mixture`` in ``sampler.HET_FAMILIES``.

Moments that do not exist (e.g. half-Cauchy mean, half-Student-t variance
for df <= 2) are reported as ``None``, never as sentinel numbers. The
half-line families evaluate their log-density formulas at max(x, 0), so a
negative x gives -inf and no floating-point warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy import special as sc

__all__ = [
    "Distribution",
    "HalfNormal",
    "HalfStudentT",
    "Exponential",
    "HalfCauchy",
    "LogNormal",
    "Lomax",
    "ScaledInvChi",
    "InvGamma",
    "Normal",
    "Uniform",
    "MomentSummary",
    "InfeasibleError",
    "parse_distribution",
    "format_distribution",
    "half_t_cv",
    "inv_chi_cv",
    "solve_half_t_nu",
    "half_t_moment_fit",
    "scale_mixture_half_t",
    "exp_mixture_lomax",
    "lognormal_from_theta",
    "HALF_NORMAL_CV_LIMIT",
    "NU_MAX",
]

_LOG_2PI = math.log(2.0 * math.pi)

#: Lower bound of the half-Student-t coefficient of variation,
#: attained in the half-normal limit (df -> infinity).
HALF_NORMAL_CV_LIMIT = math.sqrt(math.pi / 2.0 - 1.0)

#: Cap for degrees-of-freedom searches; beyond this the half-t (or the
#: scaled inverse chi mixing distribution) is numerically a half-normal
#: and the cv equations become too flat to solve reliably.
NU_MAX = 1.0e4


class InfeasibleError(ValueError):
    """A moment-matching target lies outside the family's attainable range."""


@dataclass(frozen=True)
class MomentSummary:
    """Mean and standard deviation; ``None`` marks a moment that does not exist."""

    mean: float | None
    sd: float | None


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _check_prob(p):
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    return p_arr


def _scalarize(x_in, result):
    if np.ndim(x_in) == 0:
        return float(result)
    return result


class Distribution:
    """Common interface; subclasses implement the family-specific math."""

    #: token used in the canonical text form, e.g. ``half-normal(0.22)``
    token: str = ""

    def _params(self) -> tuple[float, ...]:
        """The parameters, in the order of the dataclass fields."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def log_density(self, x):
        """Natural-log density; ``-inf`` outside the support."""
        x_arr = np.asarray(x, dtype=float)
        return _scalarize(x, self._log_density(x_arr))

    def density(self, x):
        x_arr = np.asarray(x, dtype=float)
        return _scalarize(x, np.exp(self._log_density(x_arr)))

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return _scalarize(x, self._cdf(x_arr))

    def quantile(self, p):
        """Inverse cdf; requires 0 < p < 1."""
        p_arr = _check_prob(p)
        return _scalarize(p, self._quantile(p_arr))

    def moments(self) -> MomentSummary:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        return self._sample(rng, int(n))

    def text(self) -> str:
        return format_distribution(self)

    def __str__(self) -> str:
        return self.text()

    # subclass hooks
    def _log_density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError


def _half_support(x, log_pdf):
    """A log-density formula ``log_pdf`` on x >= 0, set to -inf below zero
    and at NaN.  The formula sees 0 in place of those x, so none of them
    can raise a floating-point warning."""
    inside = x >= 0.0
    return np.where(inside, log_pdf(np.where(inside, x, 0.0)), -np.inf)


@dataclass(frozen=True)
class HalfNormal(Distribution):
    scale: float
    token = "half-normal"

    def __post_init__(self):
        _positive("scale", self.scale)

    def _log_density(self, x):
        s = self.scale
        return _half_support(x, lambda t: 0.5 * math.log(2.0 / math.pi) - math.log(s) - 0.5 * (t / s) ** 2)

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, sc.erf(np.maximum(x, 0.0) / (self.scale * math.sqrt(2.0))))

    def _quantile(self, p):
        return self.scale * math.sqrt(2.0) * sc.erfinv(p)

    def moments(self):
        mean = self.scale * math.sqrt(2.0 / math.pi)
        sd = self.scale * math.sqrt(1.0 - 2.0 / math.pi)
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return self.scale * np.abs(rng.standard_normal(n))


def _half_t_mean_unit(df: float) -> float:
    """Mean of a half-Student-t with unit scale (exists for df > 1)."""
    return (
        2.0
        * math.sqrt(df / math.pi)
        * math.exp(sc.gammaln((df + 1.0) / 2.0) - sc.gammaln(df / 2.0))
        / (df - 1.0)
    )


def _half_t_var_unit(df: float) -> float:
    """Variance of a half-Student-t with unit scale (exists for df > 2)."""
    r = math.exp(sc.gammaln((df + 1.0) / 2.0) - sc.gammaln(df / 2.0))
    return df / (df - 2.0) - 4.0 * df / (math.pi * (df - 1.0) ** 2) * r * r


@dataclass(frozen=True)
class HalfStudentT(Distribution):
    df: float
    scale: float
    token = "half-t"

    def __post_init__(self):
        _positive("df", self.df)
        _positive("scale", self.scale)

    def _log_density(self, x):
        nu, s = self.df, self.scale
        lognorm = (
            math.log(2.0)
            + sc.gammaln((nu + 1.0) / 2.0)
            - sc.gammaln(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(s)
        )
        return _half_support(x, lambda t: lognorm - (nu + 1.0) / 2.0 * np.log1p(np.square(t / s) / nu))

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, 2.0 * sc.stdtr(self.df, np.maximum(x, 0.0) / self.scale) - 1.0)

    def _quantile(self, p):
        return self.scale * sc.stdtrit(self.df, (1.0 + p) / 2.0)

    def moments(self):
        mean = self.scale * _half_t_mean_unit(self.df) if self.df > 1.0 else None
        sd = self.scale * math.sqrt(_half_t_var_unit(self.df)) if self.df > 2.0 else None
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return self.scale * np.abs(rng.standard_t(self.df, n))


@dataclass(frozen=True)
class Exponential(Distribution):
    scale: float
    token = "exp"

    def __post_init__(self):
        _positive("scale", self.scale)

    def _log_density(self, x):
        return _half_support(x, lambda t: -math.log(self.scale) - t / self.scale)

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(-np.maximum(x, 0.0) / self.scale))

    def _quantile(self, p):
        return -self.scale * np.log1p(-p)

    def moments(self):
        return MomentSummary(self.scale, self.scale)

    def _sample(self, rng, n):
        return self.scale * rng.standard_exponential(n)


@dataclass(frozen=True)
class HalfCauchy(Distribution):
    scale: float
    token = "half-cauchy"

    def __post_init__(self):
        _positive("scale", self.scale)

    def _log_density(self, x):
        s = self.scale
        return _half_support(x, lambda t: math.log(2.0 / math.pi) - math.log(s) - np.log1p((t / s) ** 2))

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, (2.0 / math.pi) * np.arctan(np.maximum(x, 0.0) / self.scale))

    def _quantile(self, p):
        return self.scale * np.tan(math.pi * p / 2.0)

    def moments(self):
        # mean and sd do not exist
        return MomentSummary(None, None)

    def _sample(self, rng, n):
        return self.scale * np.abs(rng.standard_cauchy(n))


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal with location ``mu`` and shape ``sigma``.

    ``exp(mu)`` is the scale parameter (the median); :attr:`theta` exposes
    that parametrization, and :func:`lognormal_from_theta` constructs the
    distribution from it.
    """

    mu: float
    sigma: float
    token = "log-normal"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        _positive("sigma", self.sigma)

    @property
    def theta(self) -> float:
        """Scale-form parameter: exp(mu), the median."""
        return math.exp(self.mu)

    def _log_density(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(np.where(x > 0.0, x, 1.0))
            lp = -logx - math.log(self.sigma) - 0.5 * _LOG_2PI - (logx - self.mu) ** 2 / (
                2.0 * self.sigma**2
            )
        return np.where(x > 0.0, lp, -np.inf)

    def _cdf(self, x):
        with np.errstate(divide="ignore"):
            z = (np.log(np.where(x > 0.0, x, 1.0)) - self.mu) / self.sigma
        return np.where(x <= 0.0, 0.0, sc.ndtr(z))

    def _quantile(self, p):
        return np.exp(self.mu + self.sigma * sc.ndtri(p))

    def moments(self):
        s2 = self.sigma**2
        mean = math.exp(self.mu + s2 / 2.0)
        sd = mean * math.sqrt(math.expm1(s2))
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return rng.lognormal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class Lomax(Distribution):
    """Pareto type II: an exponential with inverse-gamma-distributed scale."""

    shape: float
    scale: float
    token = "lomax"

    def __post_init__(self):
        _positive("shape", self.shape)
        _positive("scale", self.scale)

    def _log_density(self, x):
        a, lam = self.shape, self.scale
        return _half_support(x, lambda t: math.log(a) - math.log(lam) - (a + 1.0) * np.log1p(t / lam))

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.shape * np.log1p(np.maximum(x, 0.0) / self.scale)))

    def _quantile(self, p):
        return self.scale * np.expm1(-np.log1p(-p) / self.shape)

    def moments(self):
        a, lam = self.shape, self.scale
        mean = lam / (a - 1.0) if a > 1.0 else None
        sd = None
        if a > 2.0:
            sd = lam * math.sqrt(a / (a - 2.0)) / (a - 1.0)
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return self.scale * rng.pareto(self.shape, n)


@dataclass(frozen=True)
class ScaledInvChi(Distribution):
    """Scaled inverse chi: ``scale`` divided by a chi-distributed variable.

    If X ~ ScaledInvChi(df, scale) then (scale/X)^2 is chi-squared with
    ``df`` degrees of freedom. A normal whose standard deviation follows
    ScaledInvChi(df, s*sqrt(df)) is a Student-t with df degrees of freedom
    and scale s.
    """

    df: float
    scale: float
    token = "inv-chi"

    def __post_init__(self):
        _positive("df", self.df)
        _positive("scale", self.scale)

    def _log_density(self, x):
        nu, s = self.df, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(np.where(x > 0.0, x, 1.0))
            lp = (
                (1.0 - nu / 2.0) * math.log(2.0)
                + nu * math.log(s)
                - sc.gammaln(nu / 2.0)
                - (nu + 1.0) * logx
                - s * s / (2.0 * np.where(x > 0.0, x, 1.0) ** 2)
            )
        return np.where(x > 0.0, lp, -np.inf)

    def _cdf(self, x):
        with np.errstate(divide="ignore"):
            arg = (self.scale / np.where(x > 0.0, x, 1.0)) ** 2 / 2.0
        return np.where(x <= 0.0, 0.0, sc.gammaincc(self.df / 2.0, arg))

    def _quantile(self, p):
        return self.scale / np.sqrt(2.0 * sc.gammainccinv(self.df / 2.0, p))

    def mean(self) -> float | None:
        if self.df <= 1.0:
            return None
        return self.scale * math.exp(sc.gammaln((self.df - 1.0) / 2.0) - sc.gammaln(self.df / 2.0)) / math.sqrt(2.0)

    def moments(self):
        mean = self.mean()
        sd = None
        if self.df > 2.0:
            second = self.scale**2 / (self.df - 2.0)
            sd = math.sqrt(second - mean * mean)
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return self.scale / np.sqrt(rng.chisquare(self.df, n))


@dataclass(frozen=True)
class InvGamma(Distribution):
    """Inverse gamma, the mixing law behind :func:`exp_mixture_lomax`; that
    match is closed-form, so no computation in the package uses this class."""

    shape: float
    scale: float
    token = "inv-gamma"

    def __post_init__(self):
        _positive("shape", self.shape)
        _positive("scale", self.scale)

    def _log_density(self, x):
        a, b = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(np.where(x > 0.0, x, 1.0))
            lp = a * math.log(b) - sc.gammaln(a) - (a + 1.0) * logx - b / np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, lp, -np.inf)

    def _cdf(self, x):
        with np.errstate(divide="ignore"):
            arg = self.scale / np.where(x > 0.0, x, 1.0)
        return np.where(x <= 0.0, 0.0, sc.gammaincc(self.shape, arg))

    def _quantile(self, p):
        return self.scale / sc.gammainccinv(self.shape, p)

    def moments(self):
        a, b = self.shape, self.scale
        mean = b / (a - 1.0) if a > 1.0 else None
        sd = None
        if a > 2.0:
            sd = b / ((a - 1.0) * math.sqrt(a - 2.0))
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return self.scale / rng.gamma(self.shape, 1.0, n)


@dataclass(frozen=True)
class Normal(Distribution):
    mean: float
    sd: float
    token = "normal"

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        _positive("sd", self.sd)

    def _log_density(self, x):
        z = (x - self.mean) / self.sd
        return -0.5 * _LOG_2PI - math.log(self.sd) - 0.5 * z * z

    def _cdf(self, x):
        return sc.ndtr((x - self.mean) / self.sd)

    def _quantile(self, p):
        return self.mean + self.sd * sc.ndtri(p)

    def moments(self):
        return MomentSummary(self.mean, self.sd)

    def _sample(self, rng, n):
        return rng.normal(self.mean, self.sd, n)


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float
    token = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or not self.lo < self.hi:
            raise ValueError(f"uniform bounds must be finite with lo < hi, got ({self.lo!r}, {self.hi!r})")

    def _log_density(self, x):
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, -math.log(self.hi - self.lo), -np.inf)

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, p):
        return self.lo + p * (self.hi - self.lo)

    def moments(self):
        mean = 0.5 * (self.lo + self.hi)
        sd = (self.hi - self.lo) / math.sqrt(12.0)
        return MomentSummary(mean, sd)

    def _sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)


# -- canonical text form -----------------------------------------------------

_FAMILIES: dict[str, type] = {
    cls.token: cls
    for cls in (
        HalfNormal,
        HalfStudentT,
        Exponential,
        HalfCauchy,
        LogNormal,
        Lomax,
        ScaledInvChi,
        InvGamma,
        Normal,
        Uniform,
    )
}


def _fmt_param(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def format_distribution(d: Distribution) -> str:
    """Canonical text form, e.g. ``half-t(8.2,0.2)``; inverse of parsing."""
    return f"{d.token}({','.join(_fmt_param(p) for p in d._params())})"


def parse_distribution(text: str) -> Distribution:
    """Parse the canonical text form, e.g. ``half-normal(0.22)``."""
    s = text.strip()
    open_idx = s.find("(")
    if open_idx < 0 or not s.endswith(")"):
        raise ValueError(f"cannot parse distribution {text!r}: expected family(p1[,p2])")
    token = s[:open_idx].strip().lower()
    cls = _FAMILIES.get(token)
    if cls is None:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown distribution family {token!r} (known: {known})")
    body = s[open_idx + 1 : -1]
    try:
        params = [float(p) for p in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse parameters in {text!r}: {exc}") from None
    n_expected = len(fields(cls))
    if len(params) != n_expected:
        raise ValueError(f"family {token!r} takes {n_expected} parameter(s), got {len(params)} in {text!r}")
    return cls(*params)


# -- moment matching ----------------------------------------------------------


def half_t_cv(df: float) -> float:
    """Coefficient of variation of a half-Student-t; scale-free, df > 2.

    Strictly decreasing in df, bounded below by sqrt(pi/2 - 1) ~ 0.7555
    (the half-normal limit).
    """
    df = float(df)
    if df <= 2.0:
        raise ValueError(f"half-t cv requires df > 2, got {df}")
    t = (
        math.pi
        * (df - 1.0) ** 2
        / (4.0 * (df - 2.0))
        * math.exp(2.0 * (sc.gammaln(df / 2.0) - sc.gammaln((df + 1.0) / 2.0)))
    )
    return math.sqrt(t - 1.0)


def inv_chi_cv(df: float) -> float:
    """Coefficient of variation of a scaled inverse chi; scale-free, df > 2."""
    df = float(df)
    if df <= 2.0:
        raise ValueError(f"scaled inverse chi cv requires df > 2, got {df}")
    t = 2.0 * math.exp(2.0 * (sc.gammaln(df / 2.0) - sc.gammaln((df - 1.0) / 2.0))) / (df - 2.0)
    return math.sqrt(t - 1.0)


def _solve_decreasing_cv(cv_func, cv: float, label: str) -> float:
    """Invert a strictly decreasing cv(df) curve on (2, NU_MAX]."""
    if cv <= cv_func(NU_MAX):
        warnings.warn(
            f"{label}: cv {cv:.6g} needs df > {NU_MAX:g}; capping (effectively half-normal)",
            RuntimeWarning,
            stacklevel=3,
        )
        return NU_MAX
    from scipy import optimize  # here, not at import: it adds ~0.4 s to every command's start-up

    return float(optimize.brentq(lambda v: cv_func(v) - cv, 2.0 + 1e-9, NU_MAX, xtol=1e-12))


def solve_half_t_nu(cv: float) -> float:
    """Degrees of freedom of the half-Student-t with the given cv.

    Raises :class:`InfeasibleError` for cv at or below the half-normal
    limit; cv values implying df above the cap return the capped value
    with a warning (the result is effectively a half-normal).
    """
    cv = float(cv)
    if not cv > HALF_NORMAL_CV_LIMIT:
        raise InfeasibleError(
            f"coefficient of variation {cv:.6g} is not attainable by a half-Student-t "
            f"(must exceed sqrt(pi/2 - 1) ~ {HALF_NORMAL_CV_LIMIT:.4f}); use a half-normal fit"
        )
    return _solve_decreasing_cv(half_t_cv, cv, "solve_half_t_nu")


def half_t_moment_fit(mean: float, sd: float) -> HalfStudentT:
    """Half-Student-t with the given mean and sd: match the cv for the
    degrees of freedom, then the mean for the scale."""
    mean = _positive("mean", mean)
    sd = _positive("sd", sd)
    df = solve_half_t_nu(sd / mean)
    return HalfStudentT(df=df, scale=mean / _half_t_mean_unit(df))


def scale_mixture_half_t(mean_s: float, sd_s: float) -> HalfStudentT:
    """Half-Student-t matching a half-normal scale mixture.

    The mixing scale (with mean ``mean_s`` and sd ``sd_s``) is matched by a
    scaled inverse chi distribution: its cv pins down the degrees of
    freedom, and the half-t scale is mean_s divided by the expectation of a
    scaled inverse chi with that df and scale sqrt(df).
    """
    mean_s = _positive("mean_s", mean_s)
    if sd_s < 0.0 or not math.isfinite(sd_s):
        raise ValueError(f"sd_s must be nonnegative and finite, got {sd_s!r}")
    if sd_s == 0.0:
        df = NU_MAX
    else:
        df = _solve_decreasing_cv(inv_chi_cv, sd_s / mean_s, "scale_mixture_half_t")
    mixing_mean = ScaledInvChi(df=df, scale=math.sqrt(df)).mean()
    return HalfStudentT(df=df, scale=mean_s / mixing_mean)


def exp_mixture_lomax(mean_s: float, sd_s: float) -> Lomax:
    """Lomax matching an exponential scale mixture with inverse-gamma
    mixing: shape 2 + 1/cv^2 and scale mean_s * (1 + 1/cv^2)."""
    mean_s = _positive("mean_s", mean_s)
    sd_s = _positive("sd_s", sd_s)
    inv_cv2 = (mean_s / sd_s) ** 2
    return Lomax(shape=2.0 + inv_cv2, scale=mean_s * (1.0 + inv_cv2))


def lognormal_from_theta(theta: float, sigma: float) -> LogNormal:
    """Log-normal from the scale-form parametrization (theta = exp(mu))."""
    theta = _positive("theta", theta)
    return LogNormal(mu=math.log(theta), sigma=sigma)
