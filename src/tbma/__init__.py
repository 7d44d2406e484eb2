"""Bayesian model averaging for two-equation censored-outcome regression.

A Gibbs sampler alternates latent-score augmentation with conjugate updates
of the coefficients and error covariance; a nested Metropolis step walks the
space of covariate-inclusion patterns using closed-form conditional Bayes
factors, yielding inclusion probabilities and model-averaged estimates.
"""

from .chain import (
    ChainConfig,
    ChainOutput,
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
)
from .conditionals import (
    GammaPosterior,
    PhiPosterior,
    PsiPosterior,
    conditional_log_marginal,
    draw_gamma,
    draw_phi,
    draw_psi,
    gamma_posterior_params,
    latent_conditional_params,
    phi_posterior_params,
    sample_latent,
    sample_truncated_normal,
)
from .core import (
    CoefVector,
    ModelIndicator,
    ModelPrior,
    PriorSpec,
    SigmaParams,
    TobitDataset,
    augmented_design,
    build_sigma,
    complete_data_log_density,
)
from .io import DataSchema, LoadedData, Standardization, load_csv, load_trace
from .oracle import (
    QuadratureSpec,
    SynthSpec,
    SynthTruth,
    conditional_log_marginal_rss,
    enumerate_model_posterior,
    generate_synthetic,
    quadrature_conditional_marginal,
    run_fixture_suite,
)
from .search import mc3_step, propose_neighbor

__version__ = "0.1.0"
