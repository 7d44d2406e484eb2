"""The sweep against a row-order reference of its latent path.

The sampler draws the latent scores straight into their row halves
(``LatentScores``), and the gamma, phi and statistics steps read those
halves.  This file keeps the row-order form of the same path: the cut
scattered into row order, one standardized draw over all rows, z scattered
back into row order, then gathered again by each reader (the statistics
gather it with ``LatentScores.from_rows``, which checks its signs).  Both
forms make every random draw and every per-element floating-point
operation in the same order, so a chain must match the reference bit for
bit, generator state included.
"""

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from conftest import make_dataset, unit_prior
from tbma.chain import ChainState, sweep
from tbma.conditionals import (
    TAIL_SWITCH,
    GammaPosterior,
    PhiPosterior,
    SweepStatistics,
    conditional_log_marginal,
    draw_gamma,
    draw_phi,
    draw_psi,
    fitted_values,
    model_rows,
)
from tbma.core import LatentScores, ModelIndicator, SigmaParams, TobitDataset
from tbma.search import mc3_step


def std_trunc_lower(a, rng):
    """u ~ N(0, 1) conditioned on u >= a over all rows in row order, from one
    uniform per row: the inverse CDF up to ``TAIL_SWITCH``, in place when
    every row takes it, and the same quantile in log space past it."""
    easy = a <= TAIL_SWITCH
    if easy.all():
        tail_mass = ndtr(np.negative(a, out=a), out=a)
        u = rng.uniform(size=a.size)
        np.subtract(1.0, u, out=u)
        u *= tail_mass
        return np.negative(ndtri(u, out=u), out=u)
    out = np.empty_like(a)
    u = rng.uniform(size=a.size)
    out[easy] = -ndtri((1.0 - u[easy]) * ndtr(-a[easy]))
    hard = ~easy
    out[hard] = -ndtri_exp(np.log1p(-u[hard]) + log_ndtr(-a[hard]))
    return out


def row_order_latent(dataset, fit, sp, rng, tails):
    """Every row's latent score in row order; appends to ``tails`` whether
    a cut lay past ``TAIL_SWITCH``."""
    if dataset.n == 0:
        return np.empty(0)
    unc, cen = dataset.split.uncensored_idx, dataset.split.censored_idx
    g, phi = sp.gamma, sp.phi
    denom = phi + g * g
    mu_unc = fit.sel_unc + (g / denom) * fit.resid_unc
    c = np.sqrt(phi / denom)
    cut = np.empty(dataset.n)
    cut[cen] = fit.sel_cen
    cut[unc] = -mu_unc / c
    tails.append(bool(np.any(cut > TAIL_SWITCH)))
    u = std_trunc_lower(cut, rng)
    z = np.empty(dataset.n)
    z[cen] = np.minimum(fit.sel_cen - u[cen], -np.finfo(np.float64).tiny)
    z[unc] = np.maximum(mu_unc + c * u[unc], 0.0)
    return z


def row_order_gamma(dataset, z, fit, phi, prior):
    unc = dataset.split.uncensored_idx
    if unc.size == 0:
        return GammaPosterior(gamma1=prior.gamma0, G1=prior.G0)
    e_z = z[unc] - fit.sel_unc
    e_y = fit.resid_unc
    G1 = 1.0 / (1.0 / prior.G0 + float(np.dot(e_z, e_z)) / phi)
    return GammaPosterior(gamma1=G1 * (prior.gamma0 / prior.G0 + float(np.dot(e_z, e_y)) / phi), G1=G1)


def row_order_phi(dataset, z, fit, gamma, prior):
    e_z = z[dataset.split.uncensored_idx] - fit.sel_unc
    e_y = fit.resid_unc
    resid = gamma * e_z - e_y
    return PhiPosterior(s1=prior.s0 + e_y.size, S1=prior.S0 + float(np.dot(resid, resid)))


def row_order_statistics(rows, z, sp):
    dataset = rows.dataset
    latent = LatentScores.from_rows(dataset, z)
    split = dataset.split
    p, pq = dataset.p, dataset.p + dataset.q
    g, phi = sp.gamma, sp.phi
    a11, a12, a22 = 1.0 + g * g / phi, -g / phi, 1.0 / phi
    gram = np.empty((pq, pq))
    gram[:p, :p] = a11 * split.gram_ww_unc + split.gram_ww_cen
    gram[:p, p:] = a12 * split.gram_wx_unc
    gram[p:, :p] = gram[:p, p:].T
    gram[p:, p:] = a22 * split.gram_xx_unc
    gram.setflags(write=False)
    stats = SweepStatistics(gram, dataset, latent.z_unc, latent.z_cen, a11, a12, a22)
    stats.linear_term(rows.model.active_positions)
    return stats


def row_order_sweep(state, prior, inner_model_moves, rng, tails):
    rows = state.rows
    dataset = rows.dataset
    fit = fitted_values(rows, state.psi)
    z = row_order_latent(dataset, fit, state.sigma, rng, tails)
    gamma = draw_gamma(row_order_gamma(dataset, z, fit, state.sigma.phi, prior), rng)
    phi = draw_phi(row_order_phi(dataset, z, fit, gamma, prior), rng)
    sigma = SigmaParams(gamma, phi)
    stats = row_order_statistics(rows, z, sigma)
    psi_post = conditional_log_marginal(stats, prior, rows.model)
    accepted_any = False
    for _ in range(inner_model_moves):
        psi_post, accepted = mc3_step(stats, prior, psi_post, prior.model_prior, rng)
        accepted_any = accepted_any or accepted
    psi = draw_psi(psi_post, rng)
    if accepted_any and psi_post.model != rows.model:
        rows = model_rows(dataset, psi_post.model)
    return ChainState(rows, psi, sigma), accepted_any


def steep_selection_problem():
    """Selection on one steep covariate, four of its most extreme rows put
    on the wrong side, and a tight prior that holds its coefficient near
    2.5: those rows' cuts pass ``TAIL_SWITCH`` in about two sweeps of three."""
    gen = np.random.default_rng(0)
    n = 60
    W = np.column_stack([np.ones(n), gen.standard_normal(n)])
    X = np.column_stack([np.ones(n), gen.standard_normal(n)])
    censored = 3.0 * W[:, 1] + gen.standard_normal(n) < 0
    flip = np.argsort(np.abs(W[:, 1]))[-4:]
    censored[flip] = ~censored[flip]
    y = np.where(censored, 0.0, X @ [0.5, 1.0] + gen.standard_normal(n))
    ds = TobitDataset(W, X, y, censored, ("w0", "w1"), ("x0", "x1"))
    prior = unit_prior(2, 2, theta0=np.array([0.0, 2.5]), Theta0=np.diag([1.0, 0.01]))
    return ds, prior, np.array([False, True, False, False])


def problem(kind):
    if kind == "steep-selection":
        return steep_selection_problem()
    fraction = {"mixed": 0.4, "no-censored-rows": 0.0, "every-row-censored": 1.1}[kind]
    ds = make_dataset(n=50, p=3, q=2, seed=7, censored_fraction=fraction)
    return ds, unit_prior(3, 2, G0=0.5), np.zeros(5, bool)


@pytest.mark.parametrize("kind", ["mixed", "no-censored-rows", "every-row-censored", "steep-selection"])
def test_sweep_matches_the_row_order_reference_bit_for_bit(kind):
    ds, prior, forced = problem(kind)
    uncensored = {"no-censored-rows": ds.n, "every-row-censored": 0}
    assert ds.n_o == uncensored[kind] if kind in uncensored else 0 < ds.n_o < ds.n
    start = ChainState.start(ds, ModelIndicator.full_model(ds.p, ds.q, forced), np.zeros(ds.p + ds.q),
                             SigmaParams(0.0, 1.0))
    state, ref = start, start
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    tails, models = [], set()
    for _ in range(150):
        state, accepted = sweep(state, prior, 2, rng)
        ref, ref_accepted = row_order_sweep(ref, prior, 2, ref_rng, tails)
        assert accepted == ref_accepted
        assert np.array_equal(state.model.include, ref.model.include)
        assert state.psi.tobytes() == ref.psi.tobytes()
        assert np.array([state.sigma.gamma, state.sigma.phi]).tobytes() == (
            np.array([ref.sigma.gamma, ref.sigma.phi]).tobytes())
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        models.add(state.model.key())
    assert len(models) > 1
    if kind == "steep-selection":
        # Both kinds of sweep ran: some with rows past the tail switch, some
        # without.
        assert 10 <= sum(tails) <= len(tails) - 10
    else:
        assert not any(tails)
