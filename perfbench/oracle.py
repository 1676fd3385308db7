"""Independent quadrature oracle for single meta-analysis posterior medians.

Recomputes the heterogeneity (tau) and effect (mu) posterior medians of the
normal-normal model with ``scipy.integrate.quad`` and ``scipy.stats``
densities, sharing no code with ``hetprior.metaanalysis``'s grid.  The effect
is integrated out analytically: a flat effect prior, or a normal one added as
a pseudo-study without heterogeneity.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

_BREAKS = (0.0, 0.02, 0.1, 0.3, 1.0, 3.0, 10.0)


def prior_pdf(text: str):
    """Density of a prior written as ``family(a[,b])``."""
    family, rest = text.split("(", 1)
    p = [float(v) for v in rest.rstrip(")").split(",")]
    if family == "half-normal":
        return stats.halfnorm(scale=p[0]).pdf
    if family == "half-t":
        t = stats.t(p[0], scale=p[1])
        return lambda x: 2.0 * t.pdf(x)
    if family == "lomax":
        return stats.lomax(c=p[0], scale=p[1]).pdf
    if family == "log-normal":
        return stats.lognorm(s=p[1], scale=math.exp(p[0])).pdf
    if family == "half-cauchy":
        return stats.halfcauchy(scale=p[0]).pdf
    raise ValueError(f"no oracle density for {text!r}")


def _conditional(y, var_y, tau, mu_prior):
    """Log integrated likelihood, conditional effect mean and variance at tau."""
    w = 1.0 / (var_y + tau * tau)
    yy = y
    if mu_prior is not None:
        w = np.append(w, 1.0 / mu_prior[1] ** 2)
        yy = np.append(y, mu_prior[0])
    sw = float(np.sum(w))
    mu_hat = float(np.sum(w * yy)) / sw
    q = float(np.sum(w * (yy - mu_hat) ** 2))
    return 0.5 * float(np.sum(np.log(w))) - 0.5 * math.log(sw) - 0.5 * q, mu_hat, 1.0 / sw


def _integrate(f, upper=math.inf) -> float:
    total = 0.0
    for lo, hi in zip(_BREAKS, _BREAKS[1:] + (math.inf,)):
        if lo >= upper:
            break
        total += integrate.quad(f, lo, min(hi, upper), limit=200, epsabs=0.0, epsrel=1e-10)[0]
    return total


def posterior_medians(y, se, prior: str, mu_prior: tuple[float, float] | None = None):
    """(tau median, mu median) under ``prior``; ``mu_prior`` is (mean, sd)."""
    y = np.asarray(y, dtype=float)
    var_y = np.asarray(se, dtype=float) ** 2
    pdf = prior_pdf(prior)
    ref = max(_conditional(y, var_y, t, mu_prior)[0] for t in np.geomspace(1e-4, 10.0, 200))
    cache: dict[float, tuple[float, float, float]] = {}

    def at(t):
        """(unnormalized posterior density, conditional effect mean, sd) at t."""
        if t not in cache:
            ll, mh, v = _conditional(y, var_y, t, mu_prior)
            cache[t] = (float(pdf(t)) * math.exp(ll - ref), mh, math.sqrt(v))
        return cache[t]

    def post(t):
        return at(t)[0]

    z = _integrate(post)
    tau_med = optimize.brentq(lambda t: _integrate(post, t) / z - 0.5, 1e-12, 100.0, xtol=1e-12)

    def mu_cdf(m):
        def f(t):
            g, mh, sd = at(t)
            return g * special.ndtr((m - mh) / sd)
        return _integrate(f) / z

    spread = float(np.max(np.abs(y))) + 10.0 * float(np.max(np.sqrt(var_y))) + 10.0
    mu_med = optimize.brentq(lambda m: mu_cdf(m) - 0.5, -spread, spread, xtol=1e-12)
    return tau_med, mu_med
