"""Bayesian model averaging for two-equation censored-outcome regression.

A Gibbs sampler alternates latent-score augmentation with conjugate updates
of the coefficients and error covariance; a nested Metropolis step walks the
space of covariate-inclusion patterns using closed-form conditional Bayes
factors, yielding inclusion probabilities and model-averaged estimates.
"""

from .chain import (
    ChainConfig,
    ChainOutput,
    ChainState,
    PosteriorSummary,
    default_prior,
    diagnostics_series,
    inclusion_probabilities,
    jump_rate,
    pool_outputs,
    posterior_summaries,
    run_chain,
    run_chains,
    running_model_size,
    sweep,
)
from .conditionals import (
    FittedValues,
    GammaPosterior,
    ModelRows,
    PhiPosterior,
    PsiPosterior,
    SweepStatistics,
    conditional_log_marginal,
    draw_gamma,
    draw_phi,
    draw_psi,
    fitted_values,
    gamma_posterior_params,
    model_rows,
    phi_posterior_params,
    sample_latent,
    sweep_statistics,
    toggle_log_bayes_factor,
)
from .core import (
    LatentScores,
    ModelIndicator,
    ModelPrior,
    PriorSpec,
    SigmaParams,
    TobitDataset,
)
from .io import DataSchema, LoadedData, Standardization, load_csv, load_trace
from .oracle import (
    QuadratureSpec,
    SynthSpec,
    SynthTruth,
    build_sigma,
    conditional_log_marginal_rss,
    generate_synthetic,
    quadrature_conditional_marginal,
    run_fixture_suite,
)
from .search import mc3_step, propose_position

__version__ = "0.1.0"
