"""Deviance information criterion for comparing heterogeneity families.

The deviance is -2 times the study-level log likelihood at given
per-analysis (mu_j, tau_j); DIC combines the posterior mean deviance with
the effective parameter count p_D = mean deviance - deviance at the
posterior means. The plug-in point uses the posterior mean of each mu_j
and of each tau_j (the plain tau draws, not root-mean-square), so the
"parameters in focus" are the study-level model's parameters.

``compare`` takes these means from the quadrature tables, with no draw:
:func:`~hetprior.sampler.posterior_mixture` gives the posterior of each
tau_j over the tau cells, and given tau_j, mu_j is normal, so E[D], E[mu_j]
and E[tau_j] are sums over those cells (:func:`mixture_dic`). The numbers
are those that draws from the same tables estimate, without their Monte
Carlo noise, and they do not depend on the seed; the draws only set the
predictive columns. :func:`compute_dic` computes the same four numbers from
draws, such as ``fit``'s, and serves as the check.

With the tau_j in focus the family enters the deviance only through how
far it shrinks each tau_j, and the criterion leans toward the half-Cauchy:
on corpora simulated from the half-normal model it often ranks the
half-Cauchy first although the exact marginal likelihood favours the
half-normal, and more analyses do not remove the lean. Read a half-Cauchy
win by a few DIC units with that in mind.

Both return the four numbers of a row of ``compare``'s ``dic.json`` as a
:class:`DicResult`; :func:`comparison_to_dict` spreads them into the row
beside the model name and its predictive summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import MetaAnalysisCollection
from .metaanalysis import GridError
from .sampler import (
    _SUMMARY_HEADING,
    McmcConfig,
    ModelSpec,
    PosteriorMixture,
    PosteriorSamples,
    _CorpusTables,
    _deviance,
    _flatten,
    _predictive_summary,
    _summary_cells,
    _variances,
    posterior_mixture,
    predictive_draws,
)

__all__ = [
    "DicResult",
    "ComparisonRow",
    "deviance",
    "compute_dic",
    "mixture_dic",
    "compare_models",
    "comparison_to_dict",
    "format_comparison_table",
]


class DicResult(NamedTuple):
    """The four numbers of :func:`compute_dic`; ``dic`` = mean_deviance + p_d
    and ``p_d`` = mean_deviance - plug_in_deviance."""

    dic: float
    p_d: float
    mean_deviance: float
    plug_in_deviance: float


def deviance(c: MetaAnalysisCollection, mu, tau) -> float:
    """-2 sum of study log densities at per-analysis effects and taus."""
    mu = np.asarray(mu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = c.n_analyses
    if mu.shape != (n,) or tau.shape != (n,):
        raise ValueError(f"mu and tau must each have length {n}, got {mu.shape} and {tau.shape}")
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(tau)))
    if bad.size:
        j = bad[0]
        raise ValueError(f"analysis {c.analysis_ids[j]!r}: mu {mu[j]} and tau {tau[j]} must be finite")
    if np.any(tau < 0.0):
        raise ValueError("tau values must be nonnegative")
    y, se2, offsets = _flatten(c)
    return float(_deviance(y, offsets, mu, _variances(se2, offsets, tau)))


def _dic(mean_deviance: float, plug_in: float) -> DicResult:
    p_d = mean_deviance - plug_in
    return DicResult(mean_deviance + p_d, p_d, mean_deviance, plug_in)


def compute_dic(s: PosteriorSamples, c: MetaAnalysisCollection) -> DicResult:
    """DIC from posterior draws of the analyses in ``c``; ``fit``'s
    ``samples.npy`` is read with :func:`~hetprior.sampler.samples_from_npy`
    first."""
    return _dic(float(np.mean(s.deviance)), deviance(c, s.mu.mean(axis=(0, 1)), s.tau.mean(axis=(0, 1))))


def mixture_dic(mix: PosteriorMixture, c: MetaAnalysisCollection) -> DicResult:
    """DIC of the posterior ``mix`` of the analyses in ``c``, from its
    exact means, with no draw; :func:`compute_dic` of draws from the same
    tables estimates the same numbers."""
    return _dic(float(np.sum(mix.deviance)), deviance(c, mix.mu, mix.tau))


@dataclass(frozen=True)
class ComparisonRow:
    family: str
    dic: DicResult | None
    predictive: dict | None
    error: str | None = None


def compare_models(
    c: MetaAnalysisCollection, families: list[str], cfg: McmcConfig | None = None
) -> list[ComparisonRow]:
    """Fit each family on the same data and rank by DIC (lowest first).

    Each family's DIC comes from its quadrature tables
    (:func:`mixture_dic`); the family-free corpus tables are built once and
    passed to every family's :func:`~hetprior.sampler.posterior_mixture`.
    ``cfg`` sets only the predictive summary,
    :func:`~hetprior.sampler.predictive_draws`: the tau* draws of
    ``run_hierarchical`` at ``cfg``, bit for bit.

    A family whose model fails (a ``ValueError`` such as a bad
    configuration, or a ``GridError``) contributes an error row
    at the end instead of aborting the whole comparison; any other
    exception is a bug and propagates. A predictive mean or sd the family
    does not have (the half-Cauchy has neither) is reported as undefined,
    since empirical values would be unstable noise.
    """
    if len(families) < 2:
        raise ValueError(f"need at least 2 families to compare, got {len(families)}")
    rows = []
    tables = _CorpusTables(c, ModelSpec())
    for fam in families:
        try:
            rows.append(_score(c, fam, cfg, tables))
        except (ValueError, GridError) as exc:
            rows.append(ComparisonRow(family=fam, dic=None, predictive=None, error=str(exc)))
    ok = sorted((r for r in rows if r.error is None), key=lambda r: r.dic.dic)
    failed = [r for r in rows if r.error is not None]
    return ok + failed


def _score(
    c: MetaAnalysisCollection, family: str, cfg: McmcConfig | None, tables: _CorpusTables
) -> ComparisonRow:
    """One family's row: its DIC from the tables, its predictive from draws."""
    mix = posterior_mixture(c, ModelSpec(het_family=family), tables)
    predictive = _predictive_summary(family, predictive_draws(mix, cfg))
    return ComparisonRow(family=family, dic=mixture_dic(mix, c), predictive=predictive)


def comparison_to_dict(rows: list[ComparisonRow]) -> list[dict]:
    """JSON-ready form of a comparison table."""
    out = []
    for r in rows:
        if r.error is not None:
            out.append({"model": r.family, "error": r.error})
            continue
        out.append({"model": r.family, **r.dic._asdict(), "predictive": dict(r.predictive)})
    return out


def format_comparison_table(rows: list[ComparisonRow]) -> str:
    """Aligned text table: model, DIC, predictive mean/sd/50%/95%/99%."""
    name_w = max([len("model")] + [len(r.family) for r in rows])
    lines = [f"{'model'.ljust(name_w)}  {'DIC'.rjust(7)}  {_SUMMARY_HEADING}"]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.family.ljust(name_w)}  failed: {r.error}")
            continue
        lines.append(f"{r.family.ljust(name_w)}  {r.dic.dic:7.1f}  {_summary_cells(r.predictive)}")
    return "\n".join(lines)
