"""The model move: a single-bit-toggle Metropolis walk over inclusion patterns.

Each move scores the current and the proposed model with the closed-form
conditional log marginal.  Differences between two models' values are exact
log conditional Bayes factors, and the retained model's coefficient
posterior comes out of the same computation for the sweep's coefficient draw.
"""

from __future__ import annotations

import math

import numpy as np

from .conditionals import PsiPosterior, conditional_log_marginal
from .core import ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from .errors import NoMoveAvailable

__all__ = [
    "propose_neighbor",
    "mc3_step",
]


def propose_neighbor(model: ModelIndicator, rng: np.random.Generator) -> ModelIndicator:
    """Uniform single-bit toggle over the non-forced stacked positions.

    The proposal is symmetric, so the Metropolis ratio needs no proposal
    correction.
    """
    free = model.free_positions()
    if free.size == 0:
        raise NoMoveAvailable("every covariate is forced in; no neighbor exists")
    pos = int(free[rng.integers(free.size)])
    return model.with_toggled(pos)


def mc3_step(
    dataset: TobitDataset,
    z: np.ndarray,
    model: ModelIndicator,
    sp: SigmaParams,
    prior: PriorSpec,
    model_prior: ModelPrior,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool, PsiPosterior]:
    """One accept/reject move over the model space.

    Proposes a neighbor, computes both conditional log marginals, and accepts
    with probability min(1, exp(delta)) where delta adds the log model-prior
    ratio to the log conditional Bayes factor.  Returns the retained model,
    the acceptance flag, and the retained model's coefficient posterior for
    immediate reuse by the coefficient draw.
    """
    try:
        proposal = propose_neighbor(model, rng)
    except NoMoveAvailable:
        return model, False, conditional_log_marginal(dataset, z, model, sp, prior)

    current = conditional_log_marginal(dataset, z, model, sp, prior)
    proposed = conditional_log_marginal(dataset, z, proposal, sp, prior)
    delta = (
        proposed.log_conditional_marginal
        - current.log_conditional_marginal
        + model_prior.log_ratio(proposal, model)
    )
    u = rng.uniform()
    if delta >= 0.0 or u < math.exp(delta):
        return proposal, True, proposed
    return model, False, current
