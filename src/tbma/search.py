"""The model move: a single-bit-toggle Metropolis walk over inclusion patterns.

A move draws one free position to toggle and scores the toggled model once.
Under a diagonal prior, ``toggle_log_bayes_factor`` borders or strips the
current model's precision factor, and only an accepted toggle is scored with
``conditional_log_marginal``; under any other prior every toggled model is
scored with it, and an accepted one keeps that posterior.  The retained
posterior, which holds the retained model, goes on to the next move and to
the sweep's coefficient draw, so a rejection costs no rescoring.

Both scores are looked up on this module, so tests (and the benchmark's
traced pass) can rebind them.
"""

from __future__ import annotations

import math

import numpy as np

from .conditionals import PsiPosterior, SweepStatistics, conditional_log_marginal, toggle_log_bayes_factor
from .core import ModelPrior, PriorSpec

__all__ = ["mc3_step"]


def mc3_step(
    stats: SweepStatistics,
    prior: PriorSpec,
    current: PsiPosterior,
    model_prior: ModelPrior,
    rng: np.random.Generator,
) -> tuple[PsiPosterior, bool]:
    """One accept/reject move from ``current``, the scored current model.

    Proposes toggling one free bit, drawn uniformly; the proposal is
    symmetric, so the Metropolis ratio needs no proposal correction.  Accepts
    with probability min(1, exp(delta)), where delta adds the log model-prior
    ratio to the toggle's log conditional Bayes factor.  Returns the retained
    model's coefficient posterior and the acceptance flag: the toggled
    model's posterior, scored by ``conditional_log_marginal``, on acceptance;
    ``current`` itself on rejection, or, without a draw from ``rng``, when no
    bit is free to toggle.
    """
    model = current.model
    free = model.free_positions()
    if free.size == 0:
        return current, False
    position = int(free[rng.integers(free.size)])

    log_prior_ratio = model_prior.toggle_log_ratio(not model.include[position])
    proposal = None
    if prior.is_diagonal:
        delta = toggle_log_bayes_factor(stats, prior, current, position) + log_prior_ratio
    else:
        proposal = conditional_log_marginal(stats, prior, model.with_toggled(position))
        delta = (proposal.log_conditional_marginal - current.log_conditional_marginal) + log_prior_ratio
    # random() draws the same double as uniform(), at less cost per call.
    u = rng.random()
    if delta >= 0.0 or u < math.exp(delta):
        if proposal is None:
            proposal = conditional_log_marginal(stats, prior, model.with_toggled(position))
        return proposal, True
    return current, False
