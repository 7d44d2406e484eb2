"""The model move: a single-bit-toggle Metropolis walk over inclusion patterns.

A move draws one free position to toggle and scores the toggle from the
current model's posterior alone: ``toggle_log_bayes_factor`` borders or
strips the current model's precision factor, so a proposal gets no model
object and no factorisation of its own.  Only an accepted toggle builds the
new model and scores it with ``conditional_log_marginal``, whose posterior
the next move and the sweep's coefficient draw read.  The sweep scores its
starting model once, and a rejection costs no rescoring.

Both scores are looked up on this module, so tests (and the benchmark's
traced pass) can rebind them.
"""

from __future__ import annotations

import math

import numpy as np

from .conditionals import PsiPosterior, SweepStatistics, conditional_log_marginal, toggle_log_bayes_factor
from .core import ModelIndicator, ModelPrior, PriorSpec
from .errors import NoMoveAvailable

__all__ = [
    "propose_position",
    "mc3_step",
]


def propose_position(model: ModelIndicator, rng: np.random.Generator) -> int:
    """A uniform draw of one non-forced stacked position, whose bit the move
    toggles.

    The proposal is symmetric, so the Metropolis ratio needs no proposal
    correction.
    """
    free = model.free_positions()
    if free.size == 0:
        raise NoMoveAvailable("every covariate is forced in; no neighbor exists")
    return int(free[rng.integers(free.size)])


def mc3_step(
    stats: SweepStatistics,
    prior: PriorSpec,
    current: PsiPosterior,
    model_prior: ModelPrior,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool, PsiPosterior]:
    """One accept/reject move from ``current``, the scored current model.

    Proposes toggling one free bit and accepts with probability
    min(1, exp(delta)), where delta adds the log model-prior ratio to the
    toggle's log conditional Bayes factor.  Returns the retained model, the
    acceptance flag, and the retained model's coefficient posterior: the
    toggled model's, scored by ``conditional_log_marginal``, on acceptance;
    ``current`` itself on rejection, or when no bit is free to toggle.
    """
    model = current.model
    try:
        position = propose_position(model, rng)
    except NoMoveAvailable:
        return model, False, current

    delta = toggle_log_bayes_factor(stats, prior, current, position) + model_prior.toggle_log_ratio(
        not model.include[position]
    )
    u = rng.uniform()
    if delta >= 0.0 or u < math.exp(delta):
        proposal = model.with_toggled(position)
        return proposal, True, conditional_log_marginal(stats, prior, proposal)
    return model, False, current
