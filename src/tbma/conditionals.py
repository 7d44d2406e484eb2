"""Full-conditional computations and draws for the Gibbs sweep.

Covers the latent selection scores (truncated normals), the stacked
coefficient vector (multivariate normal on the active subspace), the error
covariance entry gamma (normal) and the conditional outcome variance phi
(inverse gamma).  The coefficient conditional also yields the model's
conditional log marginal, which the model move compares across models.

The O(n) work of a sweep scales with the size d of the retained model, not
with p + q.  The design halves are stored transposed, one row per covariate
(``TobitDataset.split``).  ``model_rows`` gathers the rows at one model's
active covariates; the sweep loop keeps one such block for the retained
model and gathers it again only when a move changes that model.

The latent, gamma and phi conditionals all read the fitted values of the
sweep's starting coefficients, which ``fitted_values`` forms once per sweep
from the retained model's rows: a chain keeps only that model's d
coefficients, and every other coefficient is zero.

The latent draw and its readers work on the two row halves of
``dataset.split`` and never form the scores in row order.
``sample_latent`` returns ``LatentScores`` (``tbma.core``), whose
constructor owns the sign contract.  Every sweep draws exactly n uniforms
in row order, one per row, and each half gathers its own and turns each
into a truncated-normal quantile; a row whose cut lies deep in the tail
takes the same quantile in log space.  The gamma and phi conditionals read
the uncensored residual pair, and ``sweep_statistics`` reads both halves.

The coefficient conditional has two parts.  ``sweep_statistics`` does the
shared work once per sweep: at fixed latent scores and covariance, the
weighted Gram matrix and linear term of every covariate are the same for
every model.  The Gram blocks are fixed by the censoring pattern, so only
their weights change.  The linear term is formed at the retained model's
covariates, one dot product per row and half; a covariate a proposal adds
gets its entry the first time a score reads it.
``conditional_log_marginal`` scores one model from them by indexing its
active rows and columns, adding the restricted prior and factoring once,
with LAPACK's Cholesky routines called directly.  The prior block depends
only on the model; the prior keeps the restricted and inverted block of the
last model scored (``PriorSpec.restricted``).

The model move compares a scored model with the model one bit away.  With
a diagonal prior, ``toggle_log_bayes_factor`` gives that log conditional
Bayes factor from the scored model's precision factor and posterior mean:
the toggled model's precision is the current one bordered by, or stripped
of, one row and column, so the factor costs one triangular solve and no
factorisation.  With any other prior the move scores the toggled model with
``conditional_log_marginal`` (``tbma.search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .core import (
    LatentScores,
    ModelIndicator,
    PriorSpec,
    SigmaParams,
    TobitDataset,
    row_dots,
)
from .errors import InvalidParameter, NumericalError

__all__ = [
    "ModelRows",
    "FittedValues",
    "SweepStatistics",
    "PsiPosterior",
    "GammaPosterior",
    "PhiPosterior",
    "model_rows",
    "fitted_values",
    "sample_latent",
    "sweep_statistics",
    "conditional_log_marginal",
    "toggle_log_bayes_factor",
    "gamma_posterior_params",
    "phi_posterior_params",
    "draw_psi",
    "draw_gamma",
    "draw_phi",
]

# Standardized cut beyond which a row's truncated-normal quantile is formed in
# log space (``_negated_draw``).  The plain form's survival mass ndtr(-cut)
# turns subnormal near a cut of 37.5 and underflows to 0 past 38.5; the log
# form stays finite to cuts of about 1e154.
TAIL_SWITCH = 5.0

# The largest censored latent score: the negated smallest normal double.
_NEG_TINY = -np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class ModelRows:
    """One model's rows of the transposed design halves of ``dataset.split``:
    ``wx_unc`` holds the rows of the active covariates, selection first,
    over the uncensored rows of the data, and ``w_cen`` those of the ``dw``
    active selection covariates over the censored rows."""

    dataset: TobitDataset
    model: ModelIndicator
    dw: int
    wx_unc: np.ndarray
    w_cen: np.ndarray


@dataclass(frozen=True, eq=False)
class FittedValues:
    """Products of one coefficient vector with the design, split by row half:
    ``sel_unc``/``sel_cen`` = W theta over the uncensored/censored rows, and
    ``resid_unc`` = y - X beta over the uncensored rows."""

    sel_unc: np.ndarray
    sel_cen: np.ndarray
    resid_unc: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepStatistics:
    """Data terms of the coefficient conditional over all p + q covariates,
    at one sweep's latent scores and covariance.

    ``gram`` is the weighted cross-product matrix, stacked selection block
    first; (a11, a12, a22) are the entries of the inverse error covariance.
    The weighted design-response vector (the linear term) is read through
    ``linear_term``.  With u the stacked row of ``dataset.split.WX_unc`` and
    c = u . y_unc its ``cross_y_unc`` entry, a selection covariate's entry
    is a11 u . z_unc + W_cen[j] . z_cen + a12 c, and an outcome covariate's
    is a12 u . z_unc + a22 c.  Each entry is formed once, when it is first
    read or by ``sweep_statistics`` for the retained model, and then kept,
    so a model scored twice from one sweep's statistics gets the same bits.
    """

    gram: np.ndarray
    dataset: TobitDataset
    z_unc: np.ndarray
    z_cen: np.ndarray
    a11: float
    a12: float
    a22: float
    _lin: np.ndarray = field(init=False, repr=False)
    _formed: set[int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_lin", np.empty(self.gram.shape[0]))
        object.__setattr__(self, "_formed", set())

    def linear_term(self, positions: np.ndarray) -> np.ndarray:
        """The linear term at the stacked ``positions``, forming the entries
        not formed before with one dot product per row half."""
        formed = self._formed
        for j in positions.tolist():
            if j not in formed:
                split = self.dataset.split
                u, c = np.dot(split.WX_unc[j], self.z_unc), split.cross_y_unc[j]
                if j < self.dataset.p:
                    self._lin[j] = self.a11 * u + np.dot(split.W_cen[j], self.z_cen) + self.a12 * c
                else:
                    self._lin[j] = self.a12 * u + self.a22 * c
                formed.add(j)
        return self._lin[positions]

    def _form_from_rows(self, rows: ModelRows) -> None:
        """Form the linear term at every covariate of ``rows.model`` from its
        gathered rows, each entry summed as ``linear_term`` sums it."""
        positions = rows.model.active_positions
        dw = rows.dw
        u = row_dots(rows.wx_unc, self.z_unc)
        c = self.dataset.split.cross_y_unc[positions]
        self._lin[positions[:dw]] = self.a11 * u[:dw] + row_dots(rows.w_cen, self.z_cen) + self.a12 * c[:dw]
        self._lin[positions[dw:]] = self.a12 * u[dw:] + self.a22 * c[dw:]
        self._formed.update(positions.tolist())


@dataclass(frozen=True, eq=False)
class PsiPosterior:
    """Conditional posterior N(psi1, Psi1) of one model's active coefficients,
    with the model's log conditional marginal.

    ``chol`` is the lower Cholesky factor L of the posterior precision
    Psi1^{-1} = L L'; the covariance itself is never formed.
    """

    model: ModelIndicator
    psi1: np.ndarray
    log_conditional_marginal: float
    chol: np.ndarray


@dataclass(frozen=True)
class GammaPosterior:
    gamma1: float
    G1: float


@dataclass(frozen=True)
class PhiPosterior:
    s1: float
    S1: float


def _survival_quantile(neg_cut: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """ndtri((1 - U) ndtr(-cut)) elementwise from ``neg_cut`` = -cut and the
    uniforms U: the negated inverse-CDF draw of u ~ N(0, 1) conditioned on
    u >= cut.  Works in place: overwrites both arguments and returns ``uniform``.

    The survival form P(u >= x) = ndtr(-x) stays well conditioned where the
    inverse of the plain CDF would saturate.  U covers [0, 1); flipping it
    keeps the quantile argument off 0, which would map to an infinite draw.
    """
    tail_mass = ndtr(neg_cut, out=neg_cut)
    np.subtract(1.0, uniform, out=uniform)
    uniform *= tail_mass
    return ndtri(uniform, out=uniform)


def _negated_draw(neg_cut: np.ndarray, uniform: np.ndarray, half: str) -> np.ndarray:
    """v = -u for u ~ N(0, 1) conditioned on u >= cut, elementwise over one
    row half, from ``neg_cut`` = -cut and one uniform U per row.  Works in
    place: may overwrite both arguments, and returns ``uniform``.

    Rows with cut <= ``TAIL_SWITCH`` take ``_survival_quantile``.  The rest
    take the same quantile in log space, ndtri_exp(log1p(-U) + log_ndtr(-cut)).
    Only a half whose smallest -cut fails the switch builds the tail mask.
    Raises NumericalError naming ``half`` on a cut that is not finite, or so
    deep (past about 1e154) that its log tail mass overflows.
    """
    if not neg_cut.size:
        return uniform
    low, high = neg_cut.min(), neg_cut.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalError(f"non-finite latent cut in the {half} rows")
    if low >= -TAIL_SWITCH:
        return _survival_quantile(neg_cut, uniform)
    tail = neg_cut < -TAIL_SWITCH
    body = ~tail
    uniform[body] = _survival_quantile(neg_cut[body], uniform[body])
    v = ndtri_exp(np.log1p(-uniform[tail]) + log_ndtr(neg_cut[tail]))
    if not math.isfinite(v.min()):
        raise NumericalError(f"latent cut {-low:.6g} in the {half} rows is too deep in the tail to draw")
    uniform[tail] = v
    return uniform


def model_rows(dataset: TobitDataset, model: ModelIndicator) -> ModelRows:
    """Gather ``model``'s rows of the transposed design halves; read-only."""
    split = dataset.split
    active = model.active_positions
    dw = int(np.searchsorted(active, dataset.p))
    rows = ModelRows(dataset, model, dw, split.WX_unc[active], split.W_cen[active[:dw]])
    for values in (rows.wx_unc, rows.w_cen):
        values.setflags(write=False)
    return rows


def fitted_values(rows: ModelRows, psi: np.ndarray) -> FittedValues:
    """The products of ``psi``, the coefficients of ``rows.model``'s active
    covariates in ``active_positions`` order, with the design that the
    latent, gamma and phi conditionals share, formed once per sweep;
    read-only, so every reader sees the same values.  Each product sums d
    terms per data row.  A product that overflows is left infinite or NaN
    without a warning: the latent draw raises NumericalError on its cut.
    """
    dw = rows.dw
    theta = psi[:dw]
    with np.errstate(over="ignore", invalid="ignore"):
        fit = FittedValues(
            sel_unc=theta @ rows.wx_unc[:dw],
            sel_cen=theta @ rows.w_cen,
            resid_unc=rows.dataset.split.y_unc - psi[dw:] @ rows.wx_unc[dw:],
        )
    for values in (fit.sel_unc, fit.sel_cen, fit.resid_unc):
        values.setflags(write=False)
    return fit


def sample_latent(
    dataset: TobitDataset, fit: FittedValues, sp: SigmaParams, rng: np.random.Generator
) -> LatentScores:
    """Joint draw of all latent scores, by row half; the sign pattern equals
    the censoring pattern.

    A censored row's score is N(W theta, 1) restricted to (-inf, 0); an
    uncensored row's is N(mu, c^2) restricted to [0, inf), with
    mu = W theta + gamma / (phi + gamma^2) (y - X beta) and
    c^2 = phi / (phi + gamma^2), one scale for the whole half.  Both halves
    share one standardized draw u >= cut over all rows: the cut is W theta
    on censored rows, whose score is the mirror image W theta - u, and
    -mu / c on uncensored rows, whose score is mu + c u.

    u is the inverse-CDF draw from exactly n uniforms taken in row order,
    whatever the cuts; each half gathers its own uniforms once and forms its
    cut, transform and clamp in place (``_negated_draw``).  A NaN or
    infinite cut raises NumericalError naming its half.
    """
    split = dataset.split
    g, phi = sp.gamma, sp.phi
    denom = phi + g * g
    mu_unc = fit.sel_unc + (g / denom) * fit.resid_unc
    c = np.sqrt(phi / denom)
    uniform = rng.random(dataset.n)
    # -cut on each half: mu / c equals -(-mu / c) bit for bit.
    v_unc = _negated_draw(mu_unc / c, np.take(uniform, split.uncensored_idx), "uncensored")
    v_cen = _negated_draw(np.negative(fit.sel_cen), np.take(uniform, split.censored_idx), "censored")
    # With v = -u, mu - c v and W theta + v are mu + c u and W theta - u bit
    # for bit.  Rounding at the boundary must never break the sign contract.
    z_unc = np.subtract(mu_unc, np.multiply(v_unc, c, out=v_unc), out=v_unc)
    np.maximum(z_unc, 0.0, out=z_unc)
    z_cen = np.add(fit.sel_cen, v_cen, out=v_cen)
    np.minimum(z_cen, _NEG_TINY, out=z_cen)
    for half in (z_unc, z_cen):
        half.setflags(write=False)
    return LatentScores(z_unc, z_cen)


def sweep_statistics(rows: ModelRows, latent: LatentScores, sp: SigmaParams) -> SweepStatistics:
    """Everything the coefficient conditional takes from the data of
    ``rows.dataset`` at fixed latent scores and covariance, for all p + q
    covariates.

    With (a11, a12, a22) the entries of the inverse error covariance, the
    Gram matrix is [[a11 W_u'W_u + W_c'W_c, a12 W_u'X_u], [., a22 X_u'X_u]]
    over uncensored (u) and censored (c) rows, and the linear term is
    [a11 W_u'z_u + W_c'z_c + a12 W_u'y_u ; a12 X_u'z_u + a22 X_u'y_u].  The
    row-split Gram blocks and W_u'y_u, X_u'y_u are cached on the dataset.
    The linear term is formed here at the covariates of ``rows.model``, the
    sweep's retained model, and elsewhere only when a score reads it
    (``SweepStatistics.linear_term``).
    """
    dataset = rows.dataset
    latent.check_fits(dataset)
    split = dataset.split
    p, pq = dataset.p, dataset.p + dataset.q
    g, phi = sp.gamma, sp.phi
    a11, a12, a22 = 1.0 + g * g / phi, -g / phi, 1.0 / phi  # inverse error covariance

    # Each block is written in place; a12 x is the same float in both
    # off-diagonal blocks, so the lower one needs no transposed copy.
    gram = np.empty((pq, pq))
    ww = np.multiply(split.gram_ww_unc, a11, out=gram[:p, :p])
    np.add(ww, split.gram_ww_cen, out=ww)
    np.multiply(split.gram_wx_unc, a12, out=gram[:p, p:])
    np.multiply(split.gram_wx_unc.T, a12, out=gram[p:, :p])
    np.multiply(split.gram_xx_unc, a22, out=gram[p:, p:])
    gram.setflags(write=False)
    stats = SweepStatistics(gram, dataset, latent.z_unc, latent.z_cen, a11, a12, a22)
    stats._form_from_rows(rows)
    return stats


def conditional_log_marginal(
    stats: SweepStatistics,
    prior: PriorSpec,
    model: ModelIndicator,
) -> PsiPosterior:
    """Conditional posterior of a model's active coefficients and its log
    integrated likelihood, at the latent scores and covariance ``stats`` was
    built from.

    Value: (log|Psi1| - log|Psi0| - psi0' Psi0^{-1} psi0 + psi1' Psi1^{-1} psi1) / 2
    on the active subspace, all determinants via Cholesky log-determinants.
    The dropped constant depends only on (z, y, sigma), so differences across
    models are exact log conditional Bayes factors.  The prior block is
    restricted and then inverted (``PriorSpec.restricted``): the inverse of
    a restricted covariance is not the restriction of the full prior
    precision.
    """
    if model.d == 0:
        return PsiPosterior(model, np.zeros(0), 0.0, np.zeros((0, 0)))

    prior_terms = prior.restricted(model)
    active = model.active_positions
    # New arrays: the factorisation below overwrites ``prec``, never the prior's.
    prec = prior_terms.precision + stats.gram[active[:, None], active]
    lin = prior_terms.precision_mean + stats.linear_term(active)

    # count_nonzero: a fraction of the fixed cost of all() on arrays this small.
    if np.count_nonzero(np.isfinite(prec)) < prec.size or np.count_nonzero(np.isfinite(lin)) < lin.size:
        raise NumericalError("non-finite values in the coefficient precision system")
    chol, info = dpotrf(prec, lower=1, clean=1, overwrite_a=1)
    if info:
        raise NumericalError("coefficient precision matrix is not positive definite")
    psi1, _ = dpotrs(chol, lin, lower=1)
    logdet_prec = 2.0 * float(np.log(chol.diagonal()).sum())
    # psi1' Psi1^{-1} psi1 equals psi1 . lin because Psi1^{-1} psi1 = lin.
    value = 0.5 * (-logdet_prec - prior_terms.logdet - prior_terms.quad + float(psi1 @ lin))
    return PsiPosterior(model, psi1, value, chol)


def _check_pivot(pivot: float, other: float, what: str) -> None:
    """Require a finite positive ``pivot`` of ``what`` and a finite ``other``,
    the score's other data term."""
    if not (math.isfinite(pivot) and math.isfinite(other)):
        raise NumericalError(f"non-finite values in {what}")
    if not pivot > 0.0:
        raise NumericalError(f"{what} is not positive definite (pivot {pivot})")


def toggle_log_bayes_factor(
    stats: SweepStatistics,
    prior: PriorSpec,
    current: PsiPosterior,
    position: int,
) -> float:
    """log conditional Bayes factor of ``current.model`` with the bit at
    stacked ``position`` toggled, against ``current.model``, at the latent
    scores and covariance ``stats`` was built from, under a diagonal prior.

    The toggled model's precision is the current one bordered by, or
    stripped of, one row and column, so the factor follows from the current
    model's precision factor L and posterior mean psi1
    (G. H. Golub and C. F. Van Loan, *Matrix Computations*, sec. 6.5), with
    v and m the prior variance and mean at ``position``:

    * adding j: u = L^{-1} G[A, j], w = L' psi1, s = G_jj + 1/v - u.u and
      r = lin_j + m/v - u.w give (-log s - log v - m^2/v + r^2/s) / 2;
    * dropping the k-th active covariate: D = |L^{-1} e_k|^2, the k-th
      diagonal entry of the posterior covariance, gives
      (-log D + log v + m^2/v - psi1_k^2/D) / 2.

    It agrees with the difference of the two models' ``conditional_log_marginal``
    values to rounding.  Raises InvalidParameter for a prior that is not
    diagonal, whose toggled precision is not a bordered one.
    """
    if not prior.is_diagonal:
        raise InvalidParameter("a toggle is scored from the current factor only under a diagonal prior")
    model = current.model
    v, m = float(prior.variances[position]), float(prior.psi0[position])
    chol, active = current.chol, model.active_positions
    if model.include[position]:
        k = int(np.searchsorted(active, position))
        unit = np.zeros(active.size - k)
        unit[0] = 1.0
        x, _ = dtrtrs(chol[k:, k:], unit, lower=1)
        D, mean = float(np.vdot(x, x)), float(current.psi1[k])
        _check_pivot(D, mean, f"the precision stripped of position {position}")
        return 0.5 * (-math.log(D) + math.log(v) + m * m / v - mean * mean / D)
    s = float(stats.gram[position, position]) + 1.0 / v
    r = float(stats.linear_term(np.array([position]))[0]) + m / v
    if active.size:
        u, _ = dtrtrs(chol, stats.gram[active, position], lower=1)
        s -= float(np.vdot(u, u))
        r -= float(np.vdot(u, current.psi1 @ chol))
    _check_pivot(s, r, f"the precision bordered at position {position}")
    return 0.5 * (-math.log(s) - math.log(v) - m * m / v + r * r / s)


def gamma_posterior_params(e_z: np.ndarray, e_y: np.ndarray, phi: float, prior: PriorSpec) -> GammaPosterior:
    """Conditional posterior N(gamma1, G1) from the uncensored rows'
    residuals e_z = z - W theta and e_y = y - X beta."""
    if not phi > 0.0:
        raise InvalidParameter(f"phi must be positive, got {phi}")
    if e_z.size == 0:
        return GammaPosterior(gamma1=prior.gamma0, G1=prior.G0)
    g1_inv = 1.0 / prior.G0 + float(np.dot(e_z, e_z)) / phi
    G1 = 1.0 / g1_inv
    gamma1 = G1 * (prior.gamma0 / prior.G0 + float(np.dot(e_z, e_y)) / phi)
    return GammaPosterior(gamma1=gamma1, G1=G1)


def phi_posterior_params(e_z: np.ndarray, e_y: np.ndarray, gamma: float, prior: PriorSpec) -> PhiPosterior:
    """Conditional inverse-gamma parameters (s1, S1) for phi, from the
    uncensored rows' residuals e_z = z - W theta and e_y = y - X beta."""
    # Squared-residual form of S1 - S0 keeps the update nonnegative exactly.
    resid = gamma * e_z - e_y
    return PhiPosterior(s1=prior.s0 + e_y.size, S1=prior.S0 + float(np.dot(resid, resid)))


def draw_psi(post: PsiPosterior, rng: np.random.Generator) -> np.ndarray:
    """Draw of the model's d active coefficients, read-only: psi1 + x, where
    L' x = eps for d standard normals eps and the stored precision factor L,
    so x has covariance (L L')^{-1} = Psi1 (H. Rue, "Fast sampling of
    Gaussian Markov random fields", JRSS-B 63:325, 2001)."""
    d = post.psi1.shape[0]
    if not d:
        return post.psi1
    x, info = dtrtrs(post.chol, rng.standard_normal(d), lower=1, trans=1)
    if info:
        raise NumericalError(f"triangular solve of the coefficient draw failed (LAPACK info {info})")
    psi = post.psi1 + x
    psi.setflags(write=False)
    return psi


def draw_gamma(post: GammaPosterior, rng: np.random.Generator) -> float:
    return float(post.gamma1 + np.sqrt(post.G1) * rng.standard_normal())


def draw_phi(post: PhiPosterior, rng: np.random.Generator) -> float:
    """Inverse-gamma draw with shape s1/2 and scale S1/2."""
    return float((0.5 * post.S1) / rng.gamma(0.5 * post.s1))
