"""Apply a heterogeneity prior in a single random-effects meta-analysis.

The Bayesian route integrates the normal-normal hierarchical model over a
deterministic tau grid: with the effect integrated out (flat prior, or a
proper normal prior absorbed as a pseudo-study with no heterogeneity
term), the integrated likelihood is

    L(tau) = (prod_i w_i)^(1/2) (sum_i w_i)^(-1/2) exp(-Q(tau)/2),
    w_i = 1/(sigma_i^2 + tau^2),
    Q(tau) = sum_i w_i (y_i - mu_hat(tau))^2,

with mu_hat(tau) the w-weighted mean.  The effect posterior is then the
grid mixture of the conditional normals N(mu_hat(tau), V(tau)),
V(tau) = 1/sum_i w_i.

The tau grid and its weights are the sampler's for one analysis under a
fixed prior (500 base nodes hi0 (i / 499)^3, then 50 geometric nodes per
doubling until the top 5% holds less than 1e-6 of the posterior; hi0 the
smaller of the prior's 0.9999 quantile and the data's ``_reference_top``).
Cell [t_g, t_g+1] holds mass (F(t_g+1) - F(t_g)) (L(t_g) + L(t_g+1)) / 2,
F the prior's cdf, formed in log space; where the cdf difference rounds to
0 in a light tail, the cell's width times the geometric mean of its end
densities.  These masses normalize the posterior, pass the tail test and
place the tau quantiles; node i's effect weight L(t_i) (F(t_i+1) -
F(t_i-1)) / 2 gives each cell its mass.  The density at a node is
prior(t) L(t) / Z, Z the masses' sum.

Its mean, sd, median and 95% interval come from the full mixture, one
term per node of the tau grid.  The grid is pooled once: the sum_i w_i
and mu_hat that L(tau) needs on the final grid are the conditionals' too.
The three quantiles are found together by safeguarded Newton iteration on
(3 x cells) arrays of the mixture's cdf and density, started where the
effect grid's trapezoid cdf crosses each probability and bracketed by the
span of mu_hat +- 10 sd; a Newton point outside the bracket falls back to
bisection.  Each quantile stops once its step is at most brentq's
tolerance, 1e-12 + 4 eps |x|: mostly after 4 passes (3 to 5 over the 50
``analyze_batch`` datasets of one perfbench seed), and after about 55
where the effect's scale is near 1e70 and the cdf is too flat for its
rounding, so that bisection does the work.

The density comes from a reduced mixture of K normals, the DIRECT rule of
Roever & Friede (2017, JCGS 26:217): walking the tau grid, a new bin
starts each time the running sum of sqrt(J) passes another sqrt(delta),
J the symmetrized KL divergence between neighbouring conditionals and
delta = 1e-3, and each bin becomes one normal with the bin's weight, mean
and variance.  Over 300 test datasets (k = 1 to 30, the paper's priors)
K was 43 to 368 (median 141) against T >= 500 nodes, and the reduced
density stayed within 1e-4 of its peak of the full mixture's (at most
6.4e-5).  It is tabulated on an effect grid whose step is half the
smaller of the posterior sd and the narrowest reduced component, clipped
to 201 to 40001 points.  Typical data (k up to 30, standard errors 0.1 to
0.6) ask for 30 to 2550 points, median about 60, so most analyses sit at
the floor.  Tiny standard errors alone stay far below the cap, because the
reduction merges the narrow conditionals near tau = 0 into wider
components: eight standard errors of 5e-5 to 2e-4 under Lomax(9.9, 1.5)
take 736 points.  The cap is reached where a narrow component sits beside
a window that a heavy tau tail widens: two studies 1e-4 apart with
standard errors 1e-4 under Lomax(9.9, 1.5) give K = 451 and 40001 points.
The floor sets only where the Newton iteration starts: raising it to 1201
points moves the quantiles by at most 1.8e-13 relative over 200
``analyze_batch`` datasets.  The terms are evaluated in
blocks of 64 effect points with in-place ufuncs on one 64 x K scratch
array, reused block after block, in place of grid-sized temporaries.  Each
point's density is the row sum of its block, which does not depend on the
block size, so the blocking changes no bit of the result.

The frequentist comparators are the DerSimonian-Laird and Paule-Mandel
heterogeneity estimates and the Normal / HKSJ / mKH confidence intervals
around the weighted mean at a plugged-in tau.  PM doubles its bracket from
the largest standard error with no cap, and is undefined where Q never
falls to k - 1.  One kernel, ``_pool``, computes w, mu_hat, sum_i w_i and Q
for the tau grid, the conditionals, DL, PM, the intervals and the forest
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import MetaAnalysisCollection, _estimate_problem, _std_err_problem
from .dist import Distribution, HalfNormal, Normal, format_distribution

__all__ = [
    "SingleMeta",
    "GridDensity",
    "MetaAnalysisResult",
    "LabeledInterval",
    "DlResult",
    "TauEstimates",
    "GridError",
    "UndefinedEstimatorError",
    "tau_marginal",
    "bayes_ma",
    "dl_estimate",
    "pm_estimate",
    "ci_suite",
    "tau_estimate_collection",
    "forest_rows",
    "single_meta",
]

_Z975 = float(special.ndtri(0.975))

#: the tau grid's base nodes hi0 (i / (_TAU_NODES - 1))^_TAU_POWER, for
#: ``analyze`` and the sampler alike: spaced more finely near 0 than squares
#: would be, where the tau of precise analyses sits; each doubling of an
#: extension adds a tenth as many geometric nodes
_TAU_NODES, _TAU_POWER = 500, 3
_TAIL_MASS = 1e-6
_MAX_EXTENSIONS = 60
#: effect-grid rows per block of the mixture-density evaluation
_MU_BLOCK = 64
#: the effect grid's fewest and most points: its step rule decides in between
_MU_GRID_FLOOR, _MU_GRID_CAP = 201, 40001
#: divergence bound of the DIRECT reduction of the effect mixture: one tenth
#: of bayesmeta's default
_DIRECT_DELTA = 1e-3
#: probabilities of the effect's interval ends and median
_MU_PROBS = np.array([0.025, 0.5, 0.975])
#: Newton passes before the effect quantiles give up: twice the bisections
#: that narrow the widest bracket valid input makes (about 1e77) to 1e-12
_NEWTON_PASSES = 600
#: brentq's default relative tolerance
_RTOL = 4.0 * np.finfo(float).eps


class GridError(RuntimeError):
    """The tau grid could not be extended to cover the posterior mass."""


class UndefinedEstimatorError(ValueError):
    """A frequentist estimator is undefined for the given studies."""


@dataclass(frozen=True)
class SingleMeta:
    """One meta-analysis: study estimates and their standard errors."""

    y: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        y = tuple(float(v) for v in self.y)
        sigma = tuple(float(v) for v in self.sigma)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)
        if len(y) != len(sigma):
            raise ValueError(f"{len(y)} estimates but {len(sigma)} standard errors")
        if not y:
            raise ValueError("need at least one study")
        for i, (v, s) in enumerate(zip(y, sigma), start=1):
            problem = _estimate_problem(v)
            if problem is not None:
                raise ValueError(f"estimate {i}: {problem}")
            problem = _std_err_problem(s)
            if problem is not None:
                raise ValueError(f"standard error {i}: {problem}")

    @property
    def k(self) -> int:
        return len(self.y)


def single_meta(c: MetaAnalysisCollection, analysis_id: str | None = None) -> SingleMeta:
    """Pull one analysis out of a collection (the only one, by default; see
    :meth:`~hetprior.data.MetaAnalysisCollection.resolve_id`)."""
    return _from_records(c.analysis(c.resolve_id(analysis_id)))


def _from_records(records) -> SingleMeta:
    """The estimates and standard errors of one analysis' study records."""
    return SingleMeta(y=tuple(r.estimate for r in records), sigma=tuple(r.std_err for r in records))


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A normalized density on an increasing grid, and each cell's mass (up
    to a common factor; the trapezoid's unless given) for its quantiles."""

    grid: np.ndarray
    density: np.ndarray
    cell_mass: np.ndarray | None = None

    def __post_init__(self):
        if self.grid.shape != self.density.shape or self.grid.ndim != 1:
            raise ValueError("grid and density must be matching 1-d arrays")
        if self.cell_mass is None:
            d = self.density
            object.__setattr__(self, "cell_mass", np.diff(self.grid) * (d[1:] + d[:-1]) / 2.0)

    def _cdf_table(self) -> np.ndarray:
        # with the trapezoid's masses, scipy.integrate.cumulative_trapezoid(
        # initial=0.0), bit for bit, without its import cost
        cdf = np.concatenate(([0.0], np.cumsum(self.cell_mass)))
        return cdf / cdf[-1]

    def quantile(self, p) -> np.ndarray | float:
        cdf = self._cdf_table()
        # keep the interpolation table strictly increasing
        keep = np.concatenate(([True], np.diff(cdf) > 0.0))
        return np.interp(p, cdf[keep], self.grid[keep])

    def median_and_interval(self) -> tuple[float, tuple[float, float]]:
        """The median and the central 95% interval, from one cdf table."""
        a = (1.0 - 0.95) / 2.0  # 0.025000000000000022; a literal 0.025 moves the lower end
        median, lo, hi = self.quantile([0.5, a, 1.0 - a])
        return float(median), (float(lo), float(hi))

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


@dataclass(frozen=True)
class LabeledInterval:
    label: str
    estimate: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval {self.label!r} has lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True, eq=False)
class MetaAnalysisResult:
    mu_mean: float
    mu_median: float
    mu_sd: float
    mu_interval: tuple[float, float]
    mu_density: GridDensity
    #: normal components the effect density was summed over
    mu_components: int
    tau_median: float
    tau_interval: tuple[float, float]
    tau_density: GridDensity
    prior: Distribution
    comparators: tuple[LabeledInterval, ...]
    #: why comparators are missing, when an estimator is undefined, and
    #: whether the effect grid is too fine for the floats at the effect
    warnings: tuple[str, ...] = ()


def _pool(y: np.ndarray, var: np.ndarray, mu_prior: Normal | None = None) -> tuple:
    """Inverse-variance pooling of estimates ``y`` with total variances
    ``var`` (sigma^2 + tau^2; any leading shape, studies on the last axis),
    a normal effect prior joining as one more study of variance sd^2.
    Returns w, sum(w) (the pooled mean's variance is its inverse), the
    pooled mean mu_hat and Cochran's Q = sum(w (y - mu_hat)^2)."""
    if mu_prior is not None:
        y = np.concatenate([y, np.full((*np.shape(y)[:-1], 1), mu_prior.mean)], axis=-1)
        prior_var = np.full((*var.shape[:-1], 1), mu_prior.sd**2)
        var = np.concatenate([var, prior_var], axis=-1)
    w = 1.0 / var
    total_w = w.sum(axis=-1)
    mu_hat = (w * y).sum(axis=-1) / total_w
    q = (w * (y - mu_hat[..., None]) ** 2).sum(axis=-1)
    return w, total_w, mu_hat, q


def _pool_at(sm: SingleMeta, tau, mu_prior: Normal | None = None) -> tuple:
    """:func:`_pool` at one tau (a Python float keeps its own arithmetic for
    tau^2), or at each tau of a grid column, one row per grid point."""
    var = np.asarray(sm.sigma, dtype=float) ** 2 + tau**2
    return _pool(np.asarray(sm.y, dtype=float), var, mu_prior)


def _integrated_loglik(y: np.ndarray, var: np.ndarray, mu_prior: Normal | None) -> tuple:
    """log L(tau), the effect integrated out, from estimates ``y`` and total
    variances ``var`` laid out as :func:`_pool`'s, with the sum(w) and mu_hat
    the effect conditionals reuse; ``analyze`` and the sampler both use it."""
    w, total_w, mu_hat, q = _pool(y, var, mu_prior)
    return 0.5 * np.log(w).sum(axis=-1) - 0.5 * np.log(total_w) - 0.5 * q, total_w, mu_hat


def _reference_top(y: np.ndarray, se2: np.ndarray, offsets: np.ndarray) -> float:
    """The 0.9999 quantile of the tau grids' reference half-normal, whose
    scale is the data's widest spread max |y_i - ybar_j| + sigma_i over the
    analyses j that the CSR ``offsets`` bound in estimates ``y`` and squared
    standard errors ``se2``: the scale of tau the data alone resolve."""
    sizes = np.diff(offsets)
    spread = np.abs(y - np.repeat(np.add.reduceat(y, offsets[:-1]) / sizes, sizes)) + np.sqrt(se2)
    return float(HalfNormal(float(spread.max())).quantile(0.9999))


def _tau_grid(hi0: float, extensions: int) -> np.ndarray:
    """``_TAU_NODES`` base nodes hi0 (i / (_TAU_NODES - 1))^``_TAU_POWER``
    from 0 up to hi0, then ``extensions`` doublings of it with n =
    ``_TAU_NODES`` / 10 geometric nodes each, hi0 2^(i / n) for i = 1 ...
    n ``extensions``. A node's value does not depend on ``extensions``, so
    each grid starts with the one of one doubling fewer, bit for bit."""
    base = hi0 * np.linspace(0.0, 1.0, _TAU_NODES) ** _TAU_POWER
    per = _TAU_NODES // 10
    return np.concatenate([base, hi0 * 2.0 ** (np.arange(1, extensions * per + 1) / per)])


def _tau_grids(hi0: float):
    """The tau grids an extension loop tries, :func:`_tau_grid` with 0, 1,
    ..., ``_MAX_EXTENSIONS`` doublings in turn; the loop stops at the first
    that holds the posterior, and one that does not stop by the last fails
    with a ``GridError``. ``analyze``'s tau posterior and the sampler's
    quadrature both run their loops over it."""
    for extensions in range(_MAX_EXTENSIONS + 1):
        yield _tau_grid(hi0, extensions)
    raise GridError(
        "tau posterior mass does not decay: grid extended "
        f"{_MAX_EXTENSIONS} times without reaching tail mass < {_TAIL_MASS:g}"
    )


def tau_marginal(
    sm: SingleMeta, prior: Distribution, mu_prior: Normal | None = None
) -> GridDensity:
    """Heterogeneity posterior prior(tau) * L(tau), normalized on an
    adaptive grid (extended by doubling until the tail mass is negligible).
    A prior with mass below tau = 0 is a ``ValueError``."""
    return _tau_posterior(sm, prior, mu_prior)[0]


def _tau_posterior(
    sm: SingleMeta, prior: Distribution, mu_prior: Normal | None
) -> tuple[GridDensity, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`tau_marginal`, with the sum(w) and mu_hat of its final grid
    and the effect mixture's node weights, which give each cell its mass."""
    below = float(prior.cdf(0.0))
    if below > 0.0:
        raise ValueError(
            f"heterogeneity prior {format_distribution(prior)} has cdf(0) = {below:g}: it puts "
            "mass below tau = 0, but tau is a standard deviation"
        )
    if mu_prior is not None:
        if not isinstance(mu_prior, Normal):
            raise TypeError(f"mu_prior must be a Normal distribution or None, got {mu_prior!r}")
        # the prior joins _pool as one more study, so it obeys a study's ranges
        for what, problem in (
            ("mean", _estimate_problem(mu_prior.mean)),
            ("sd", _std_err_problem(mu_prior.sd)),
        ):
            if problem is not None:
                raise ValueError(f"effect prior {format_distribution(mu_prior)}: {what} {problem}")
    with np.errstate(over="ignore"):  # an overflow is a quantile of inf, refused next
        hi0 = float(prior.quantile(0.9999))
    if not (math.isfinite(hi0) and hi0 > 0.0):
        raise GridError(
            f"prior {prior!r} has no finite positive 0.9999 quantile; cannot build tau grid"
        )
    y = np.asarray(sm.y, dtype=float)
    sigma2 = np.asarray(sm.sigma, dtype=float) ** 2
    # anchored where the posterior lives: a heavy-tailed prior's quantile
    # alone leaves few nodes where precise studies put tau
    hi0 = min(hi0, _reference_top(y, sigma2, np.array([0, y.size])))
    for grid in _tau_grids(hi0):
        loglik, total_w, mu_hat = _integrated_loglik(y, sigma2 + grid[:, None] ** 2, mu_prior)
        log_f = prior.log_density(grid)
        with np.errstate(divide="ignore"):
            log_m = np.log(np.diff(prior.cdf(grid)))
        # a cdf difference lost to rounding: width x geometric mean density
        lost = np.isneginf(log_m)
        log_m[lost] = (np.log(np.diff(grid)) + 0.5 * (log_f[:-1] + log_f[1:]))[lost]
        log_mass = log_m + np.logaddexp(loglik[:-1], loglik[1:]) - math.log(2.0)
        top = np.max(log_mass)
        if not math.isfinite(top):
            raise GridError("heterogeneity posterior vanished on the whole tau grid")
        mass = np.exp(log_mass - top)
        total = mass.sum()
        # the cells from the first node at or above 95% of the top, as in
        # the sampler's _tail_share
        tail = mass[np.searchsorted(grid, 0.95 * grid[-1]) :].sum()
        if tail < _TAIL_MASS * total:
            break
    # each node takes half of each neighbouring cell's prior mass
    half = np.logaddexp(np.append(log_m, -np.inf), np.insert(log_m, 0, -np.inf)) - math.log(2.0)
    omega = np.exp(loglik + half - top) / total
    density = np.exp(log_f + loglik - top) / total
    return GridDensity(grid=grid, density=density, cell_mass=mass / total), total_w, mu_hat, omega


def _reduced_mixture(
    omega: np.ndarray, mu_hat: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, means, sds) of the DIRECT reduction of the mixture
    sum_t omega_t N(mu_hat_t, v_t) over the tau grid.

    Walking the grid, a new bin starts each time the running sum of
    sqrt(J) passes another sqrt(delta), J the symmetrized KL divergence
    between neighbouring conditionals; each bin becomes one normal with the
    bin's weight, mean and variance.  Bins of zero weight are dropped.
    """
    dm2 = np.diff(mu_hat) ** 2
    j = 0.5 * (v[1:] / v[:-1] + v[:-1] / v[1:] - 2.0 + dm2 * (1.0 / v[:-1] + 1.0 / v[1:]))
    path = np.concatenate(([0.0], np.cumsum(np.sqrt(np.maximum(j, 0.0)))))
    bins = np.floor(path / math.sqrt(_DIRECT_DELTA))
    starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
    counts = np.diff(np.append(starts, omega.size))
    weight = np.add.reduceat(omega, starts)
    # in-bin shares: moments of subnormal cell weights would underflow
    share = omega / np.repeat(np.where(weight > 0.0, weight, 1.0), counts)
    mean = np.add.reduceat(share * mu_hat, starts)
    var = np.add.reduceat(share * (v + (mu_hat - np.repeat(mean, counts)) ** 2), starts)
    keep = weight > 0.0
    return weight[keep], mean[keep], np.sqrt(var[keep])


def _mixture_quantiles(
    p: np.ndarray, x: np.ndarray, omega: np.ndarray, mean: np.ndarray, sd: np.ndarray
) -> np.ndarray:
    """Quantiles at probabilities ``p`` of the mixture sum_t omega_t
    N(mean_t, sd_t^2), by Newton's method from the starting points ``x``,
    every probability in one (probabilities x terms) array per pass.

    Each probability keeps a bracket, at first the span of mean_t +- 10 sd_t;
    a Newton point outside it is replaced by the bracket's midpoint.  A
    probability is done when its step, as rounded, is at most brentq's
    default tolerance 1e-12 + 4 eps |x|: a Newton step that rounds to no
    change is done, not bisected, and where the cdf is too flat for its
    rounding the bisection steps shrink to the tolerance.
    """
    lo = np.full_like(x, np.min(mean - 10.0 * sd))
    hi = np.full_like(x, np.max(mean + 10.0 * sd))
    x = np.where(np.isnan(x), 0.5 * (lo + hi), np.clip(x, lo, hi))
    dens_weight = omega / (sd * math.sqrt(2.0 * math.pi))
    todo = np.arange(x.size)
    for _ in range(_NEWTON_PASSES):
        xt = x[todo]
        z = (xt[:, None] - mean) / sd
        excess = special.ndtr(z) @ omega - p[todo]
        lo_t = np.where(excess < 0.0, xt, lo[todo])
        hi_t = np.where(excess < 0.0, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xt - excess / (np.exp(-0.5 * z * z) @ dens_weight)
        tol = 1e-12 + _RTOL * np.abs(xt)
        inside = (new > lo_t) & (new < hi_t)
        new = np.where(inside | (np.abs(new - xt) <= tol), new, 0.5 * (lo_t + hi_t))
        step = np.abs(new - xt)
        x[todo], lo[todo], hi[todo] = new, lo_t, hi_t
        todo = todo[~(step <= tol)]
        if todo.size == 0:
            return x
    raise GridError(f"effect quantiles did not converge in {_NEWTON_PASSES} Newton passes")


def _window_end(done, start: float, step: float) -> float:
    """start + n step for the fewest n >= 0 at which the monotone ``done``
    holds, bracketing n by doubling, then bisecting until no float lies
    between the bracket's ends (past 2^53 they are more than 1 apart);
    overflow is a GridError."""
    lo, hi = -1.0, 0.0  # whole numbers, as floats so that a far end overflows to inf
    while not done(start + hi * step):
        lo, hi = hi, max(1.0, 2.0 * hi)
        if not math.isfinite(start + hi * step):
            raise GridError("effect posterior mass does not decay: no finite effect window holds it")
    while lo < (mid := (lo + hi) // 2) < hi:
        lo, hi = (lo, mid) if done(start + mid * step) else (mid, hi)
    return start + hi * step


def bayes_ma(
    sm: SingleMeta,
    prior: Distribution,
    mu_prior: Normal | None = None,
) -> MetaAnalysisResult:
    """Full Bayesian meta-analysis under the given heterogeneity prior,
    with the frequentist comparators of :func:`ci_suite` for k >= 2."""
    td, total_w, mu_hat, omega = _tau_posterior(sm, prior, mu_prior)
    v = 1.0 / total_w

    mu_mean = float(np.sum(omega * mu_hat))
    # centred: sum(omega * mu_hat^2) - mu_mean^2 cancels catastrophically
    # when the effect is large against its spread
    mu_var = float(np.sum(omega * (v + (mu_hat - mu_mean) ** 2)))
    mu_sd = math.sqrt(mu_var)

    sd_cond = np.sqrt(v)

    def mixture_cdf(x: float) -> float:
        return float(np.sum(omega * special.ndtr((x - mu_hat) / sd_cond)))

    # report the density on a window holding all but 1e-7 of the mixture
    # mass at each end; wide components (large tau) push the window out
    lo_g = _window_end(lambda x: mixture_cdf(x) <= 1e-7, mu_mean - 6.0 * mu_sd, -2.0 * mu_sd)
    hi_g = _window_end(lambda x: mixture_cdf(x) >= 1.0 - 1e-7, mu_mean + 6.0 * mu_sd, 2.0 * mu_sd)
    c_weight, c_mean, c_sd = _reduced_mixture(omega, mu_hat, v)
    # the grid resolves the narrowest component it sums
    step = 0.5 * min(mu_sd, float(c_sd.min()))
    n_grid = int(np.clip(math.ceil((hi_g - lo_g) / step), _MU_GRID_FLOOR, _MU_GRID_CAP))
    mu_grid = np.linspace(lo_g, hi_g, n_grid)
    warns = []
    if not np.all(mu_grid[1:] > mu_grid[:-1]):
        warns.append(
            f"effect grid repeats points: at effect {mu_mean:.6g} floats are "
            f"{np.spacing(abs(mu_mean)):.3g} apart, too coarse for a posterior whose narrowest "
            f"component has sd {c_sd.min():.3g}, so the effect summaries are rounding noise"
        )
    mu_dens = np.empty_like(mu_grid)
    norm = c_weight / (c_sd * math.sqrt(2.0 * math.pi))
    # each row's sum does not depend on how many rows a block holds, so this
    # is the one-shot formula bit for bit; a reciprocal multiply in place of
    # the division, or a matmul row sum, would move the last bits
    buf = np.empty((_MU_BLOCK, norm.size))
    for start in range(0, n_grid, _MU_BLOCK):
        block = mu_grid[start : start + _MU_BLOCK, None]
        z = buf[: block.shape[0]]
        np.subtract(block, c_mean, out=z)
        np.divide(z, c_sd, out=z)
        np.square(z, out=z)
        np.multiply(z, -0.5, out=z)
        np.exp(z, out=z)
        np.multiply(z, norm, out=z)
        z.sum(axis=1, out=mu_dens[start : start + _MU_BLOCK])
    if not np.all(np.isfinite(mu_dens)):
        raise GridError("effect posterior density is not finite on the effect grid")
    mu_density = GridDensity(grid=mu_grid, density=mu_dens)

    # the quantiles come from the full mixture, started at the grid's; a grid
    # narrower than its own rounding has no cdf and starts them at NaN
    with np.errstate(invalid="ignore"):
        start = mu_density.quantile(_MU_PROBS)
    lo_q, mu_median, hi_q = _mixture_quantiles(_MU_PROBS, start, omega, mu_hat, sd_cond).tolist()
    tau_median, tau_interval = td.median_and_interval()

    rows: tuple[LabeledInterval, ...] = ()
    if sm.k >= 2:
        try:
            dl = dl_estimate(sm)
        except UndefinedEstimatorError as e:
            warns.append(f"frequentist comparators omitted: {e}")
        else:
            rows = ci_suite(sm, dl.tau) + (_common_effect_interval(sm),)

    return MetaAnalysisResult(
        mu_mean=mu_mean,
        mu_median=mu_median,
        mu_sd=mu_sd,
        mu_interval=(lo_q, hi_q),
        mu_density=mu_density,
        mu_components=int(norm.size),
        tau_median=tau_median,
        tau_interval=tau_interval,
        tau_density=td,
        prior=prior,
        comparators=rows,
        warnings=tuple(warns),
    )


# -- frequentist comparators -----------------------------------------------------


@dataclass(frozen=True)
class DlResult:
    tau: float
    q: float


def dl_estimate(sm: SingleMeta) -> DlResult:
    """DerSimonian-Laird moment estimate (truncated at zero) and Cochran's Q."""
    if sm.k < 2:
        raise UndefinedEstimatorError("DL estimate needs at least 2 studies")
    w, sw, _, q = _pool_at(sm, 0.0)
    denom = float(sw - np.sum(w**2) / sw)
    if not denom > 0.0:
        raise UndefinedEstimatorError(
            "DL estimate undefined: the weight denominator sum(w) - sum(w^2)/sum(w) "
            f"is not positive (standard errors {min(sm.sigma):g} to {max(sm.sigma):g} "
            "are too unequal for double precision)"
        )
    return DlResult(tau=math.sqrt(max(0.0, (float(q) - (sm.k - 1)) / denom)), q=float(q))


def pm_estimate(sm: SingleMeta) -> float:
    """Paule-Mandel estimate: tau making the generalized Q statistic match
    its k-1 degrees of freedom (zero if already below at tau=0).

    The root is bracketed by doubling from the largest standard error and
    found to 1e-12 of the bracket, so the estimate scales with the data.
    """
    if sm.k < 2:
        raise UndefinedEstimatorError("PM estimate needs at least 2 studies")

    def f(tau: float) -> float:
        return float(_pool_at(sm, tau)[3]) - (sm.k - 1)

    if f(0.0) <= 0.0:
        return 0.0
    hi = max(sm.sigma)
    while not f(hi) <= 0.0:
        hi *= 2.0
        if not math.isfinite(hi * hi):
            raise UndefinedEstimatorError(
                f"PM estimate undefined: the generalized Q statistic stays above k - 1 = "
                f"{sm.k - 1} at every finite tau"
            )
    from scipy import optimize  # here, not at import: it adds ~0.4 s to every command's start-up

    return float(optimize.brentq(f, 0.0, hi, xtol=1e-12 * hi))


def _common_effect_interval(sm: SingleMeta) -> LabeledInterval:
    _, total_w, mu, _ = _pool_at(sm, 0.0)
    mu, half = float(mu), _Z975 * math.sqrt(1.0 / total_w)
    return LabeledInterval("common-effect", mu, mu - half, mu + half)


def ci_suite(sm: SingleMeta, tau_hat: float) -> tuple[LabeledInterval, ...]:
    """Normal, HKSJ and mKH 95% intervals around the weighted mean at tau_hat."""
    if sm.k < 2:
        raise UndefinedEstimatorError("confidence intervals need at least 2 studies")
    if not (math.isfinite(tau_hat) and tau_hat >= 0.0):
        raise ValueError(f"tau_hat must be finite and nonnegative, got {tau_hat!r}")
    _, total_w, mu, q = _pool_at(sm, tau_hat)
    mu, v, q = float(mu), float(1.0 / total_w), float(q) / (sm.k - 1)
    t = float(special.stdtrit(sm.k - 1, 0.975))
    half_normal_ci = _Z975 * math.sqrt(v)
    half_hksj = t * math.sqrt(q * v)
    half_mkh = t * math.sqrt(max(1.0, q) * v)
    return (
        LabeledInterval("normal", mu, mu - half_normal_ci, mu + half_normal_ci),
        LabeledInterval("hksj", mu, mu - half_hksj, mu + half_hksj),
        LabeledInterval("mkh", mu, mu - half_mkh, mu + half_mkh),
    )


@dataclass(frozen=True)
class TauEstimates:
    method: str
    estimates: tuple[tuple[str, float], ...]
    skipped: tuple[str, ...]

    @property
    def values(self) -> np.ndarray:
        return np.array([t for _, t in self.estimates])

    def summary(self) -> dict:
        v = self.values
        return {
            "n": int(v.size),
            "fraction_zero": float(np.mean(v == 0.0)),
            "mean": float(np.mean(v)),
            "median": float(np.quantile(v, 0.5)),
        }


def tau_estimate_collection(c: MetaAnalysisCollection, method: str = "DL") -> TauEstimates:
    """Per-analysis heterogeneity point estimates across a collection.

    Single-study analyses carry no heterogeneity information; they are
    skipped and listed in ``skipped``.
    """
    norm = method.upper()
    if norm not in ("DL", "PM"):
        raise ValueError(f"method must be DL or PM, got {method!r}")
    estimates = []
    skipped = []
    for aid, records in c.analyses:
        sm = _from_records(records)
        if sm.k < 2:
            skipped.append(aid)
            continue
        try:
            tau = dl_estimate(sm).tau if norm == "DL" else pm_estimate(sm)
        except UndefinedEstimatorError as e:
            raise UndefinedEstimatorError(f"analysis {aid}: {e}") from None
        estimates.append((aid, float(tau)))
    if not estimates:
        raise ValueError("no analysis with at least 2 studies")
    return TauEstimates(method=norm, estimates=tuple(estimates), skipped=tuple(skipped))


def forest_rows(sm: SingleMeta, result: MetaAnalysisResult, labels: list[str]) -> list[dict]:
    """Forest-plot rows: one per study (its label, normal 95% CI and
    inverse-variance weight) followed by the Bayesian summary and the
    comparators."""
    if len(labels) != sm.k:
        raise ValueError(f"{len(labels)} labels for {sm.k} studies")
    w, total_w, _, _ = _pool_at(sm, 0.0)
    w = w / total_w
    rows = []
    for label, y, s, wt in zip(labels, sm.y, sm.sigma, w):
        rows.append(
            {
                "label": label,
                "estimate": y,
                "lo": y - _Z975 * s,
                "hi": y + _Z975 * s,
                "weight_or_type": f"{wt:.6f}",
            }
        )
    rows.append(
        {
            "label": f"bayes [{format_distribution(result.prior)}]",
            "estimate": result.mu_median,
            "lo": result.mu_interval[0],
            "hi": result.mu_interval[1],
            "weight_or_type": "posterior",
        }
    )
    for ci in result.comparators:
        rows.append(
            {
                "label": ci.label,
                "estimate": ci.estimate,
                "lo": ci.lo,
                "hi": ci.hi,
                "weight_or_type": "comparator",
            }
        )
    return rows
