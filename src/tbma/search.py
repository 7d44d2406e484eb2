"""The model move: a single-bit-toggle Metropolis walk over inclusion patterns.

A move scores only the proposed model, with the closed-form conditional log
marginal computed from the sweep's shared statistics.  The current model's
score comes in with it: the sweep scores its starting model once, and each
move hands on the posterior of the model it retains, so a rejection costs no
rescoring.  Differences between two models' values are exact log
conditional Bayes factors, and the retained model's coefficient posterior is
the one the sweep's coefficient draw uses.
"""

from __future__ import annotations

import math

import numpy as np

from .conditionals import PsiPosterior, SweepStatistics, conditional_log_marginal
from .core import ModelIndicator, ModelPrior, PriorSpec
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
    stats: SweepStatistics,
    prior: PriorSpec,
    current: PsiPosterior,
    model_prior: ModelPrior,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool, PsiPosterior]:
    """One accept/reject move from ``current``, the scored current model.

    Proposes a neighbor, scores it from ``stats``, and accepts with
    probability min(1, exp(delta)) where delta adds the log model-prior
    ratio to the log conditional Bayes factor.  Returns the retained model,
    the acceptance flag, and the retained model's coefficient posterior:
    ``current`` itself on rejection, or when no bit is free to toggle.
    """
    model = current.model
    try:
        proposal = propose_neighbor(model, rng)
    except NoMoveAvailable:
        return model, False, current

    proposed = conditional_log_marginal(stats, prior, proposal)
    delta = (
        proposed.log_conditional_marginal
        - current.log_conditional_marginal
        + model_prior.log_ratio(proposal, model)
    )
    u = rng.uniform()
    if delta >= 0.0 or u < math.exp(delta):
        return proposal, True, proposed
    return model, False, current
