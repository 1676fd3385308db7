"""hetprior: heterogeneity priors for random-effects meta-analysis.

Fits a hierarchical model to a collection of historical meta-analyses to
learn the distribution of between-study heterogeneity, condenses the
posterior-predictive heterogeneity into parametric priors, and applies
them in new meta-analyses.
"""

__version__ = "0.1.0"

from .dist import (  # noqa: F401
    Distribution,
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
    MomentSummary,
    InfeasibleError,
    parse_distribution,
    format_distribution,
    half_t_cv,
    inv_chi_cv,
    solve_half_t_nu,
    half_t_moment_fit,
    scale_mixture_half_t,
    exp_mixture_lomax,
    lognormal_from_theta,
)
from .data import (  # noqa: F401
    StudyRecord,
    MetaAnalysisCollection,
    FormatError,
    RecordError,
    parse_collection,
    serialize_collection,
    validate_collection,
    subset_recent,
)
from .sampler import (  # noqa: F401
    ModelSpec,
    McmcConfig,
    PosteriorSamples,
    ConfigError,
    run_hierarchical,
    PosteriorMixture,
    posterior_mixture,
    predictive_draws,
    summarize_samples,
    split_rhat,
    diagnostics,
    samples_to_npy,
    samples_from_npy,
    samples_to_csv,
    samples_from_csv,
    summary_dict,
)
from .dic import (  # noqa: F401
    DicResult,
    ComparisonRow,
    deviance,
    compute_dic,
    mixture_dic,
    compare_models,
    comparison_to_dict,
    format_comparison_table,
)
from .metaanalysis import (  # noqa: F401
    SingleMeta,
    GridDensity,
    MetaAnalysisResult,
    LabeledInterval,
    DlResult,
    TauEstimates,
    GridError,
    UndefinedEstimatorError,
    tau_marginal,
    bayes_ma,
    dl_estimate,
    pm_estimate,
    ci_suite,
    tau_estimate_collection,
    forest_rows,
    single_meta,
)
from .summarize import (  # noqa: F401
    PriorSpec,
    FitError,
    point_estimate_prior,
    mixture_match_prior,
    fit_predictive_ml,
    fit_predictive_moments,
    approximation_table,
    format_approximation_table,
    prior_to_dict,
)
