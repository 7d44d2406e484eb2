"""Full-conditional computations and draws for the Gibbs sweep.

Covers the latent selection scores (truncated normals), the stacked
coefficient vector (multivariate normal on the active subspace), the error
covariance entry gamma (normal) and the conditional outcome variance phi
(inverse gamma).  The coefficient conditional also yields the model's
conditional log marginal, which the model move compares across models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.special import ndtr, ndtri

from .core import (
    CoefVector,
    ModelIndicator,
    PriorSpec,
    SigmaParams,
    TobitDataset,
    check_sign_consistency,
)
from .errors import InvalidParameter, NumericalError

__all__ = [
    "PsiPosterior",
    "GammaPosterior",
    "PhiPosterior",
    "sample_truncated_normal",
    "latent_conditional_params",
    "sample_latent",
    "conditional_log_marginal",
    "gamma_posterior_params",
    "phi_posterior_params",
    "draw_psi",
    "draw_gamma",
    "draw_phi",
]

# Standardized truncation point beyond which the inverse CDF is replaced by
# an exponential-proposal rejection sampler.
_TAIL_SWITCH = 5.0

NEGATIVE = "negative"
NONNEGATIVE = "nonnegative"


@dataclass(frozen=True, eq=False)
class PsiPosterior:
    """Conditional posterior N(psi1, Psi1) of one model's active coefficients,
    with the model's log conditional marginal.

    ``chol`` is the lower Cholesky factor of the posterior precision.  Only
    the model a move retains is drawn from, so the covariance is formed from
    the factor on first use.
    """

    model: ModelIndicator
    psi1: np.ndarray
    log_conditional_marginal: float
    chol: np.ndarray

    @cached_property
    def Psi1(self) -> np.ndarray:
        d = self.psi1.shape[0]
        if d == 0:
            return np.zeros((0, 0))
        return cho_solve((self.chol, True), np.eye(d))


@dataclass(frozen=True)
class GammaPosterior:
    gamma1: float
    G1: float


@dataclass(frozen=True)
class PhiPosterior:
    s1: float
    S1: float


def _tail_rejection(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normal conditioned on u >= a for a deep in the right tail.

    Shifted-exponential proposal with rate (a + sqrt(a^2 + 4)) / 2 and
    acceptance exp(-(x - rate)^2 / 2); vectorized rejection loop.  The rate
    is computed in a form whose limit is exact for huge cuts, so the loop
    terminates for arbitrarily extreme inputs (callers guarantee a > 0).
    """
    with np.errstate(over="ignore"):  # a*a -> inf collapses the correction to 0
        lam = 0.5 * a * (1.0 + np.sqrt(1.0 + 4.0 / (a * a)))
    out = np.empty_like(a)
    todo = np.ones(a.shape, dtype=bool)
    while np.any(todo):
        idx = np.flatnonzero(todo)
        x = a[idx] + rng.exponential(size=idx.size) / lam[idx]
        accept = rng.uniform(size=idx.size) < np.exp(-0.5 * (x - lam[idx]) ** 2)
        hit = idx[accept]
        out[hit] = x[accept]
        todo[hit] = False
    return out


def _std_trunc_lower(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws of u ~ N(0, 1) conditioned on u >= a, elementwise."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    easy = a <= _TAIL_SWITCH
    if np.any(easy):
        # Survival-form inverse CDF: P(u >= x) = ndtr(-x) stays well
        # conditioned where the inverse of the plain CDF would saturate.
        # uniform() covers [0, 1); flip it so the quantile argument never
        # hits 0, which would map to an infinite draw.
        tail_mass = ndtr(-a[easy])
        u = 1.0 - rng.uniform(size=int(np.count_nonzero(easy)))
        out[easy] = -ndtri(u * tail_mass)
    hard = ~easy
    if np.any(hard):
        out[hard] = _tail_rejection(a[hard], rng)
    return out


def _truncated_draws(
    mu: np.ndarray, sd: np.ndarray, negative: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vector of N(mu, sd^2) draws restricted to (-inf, 0) or [0, inf) per row."""
    mu = np.asarray(mu, dtype=np.float64)
    sd = np.broadcast_to(np.asarray(sd, dtype=np.float64), mu.shape)
    negative = np.broadcast_to(np.asarray(negative, dtype=bool), mu.shape)
    # x >= 0 corresponds to the standardized lower cut -mu/sd; x < 0 is the
    # mirror image, sampled as -(u >= mu/sd).
    a = np.where(negative, mu, -mu) / sd
    u = _std_trunc_lower(a, rng)
    x = np.where(negative, mu - sd * u, mu + sd * u)
    # Rounding at the boundary must never break the sign contract.
    tiny = np.finfo(np.float64).tiny
    x = np.where(negative, np.minimum(x, -tiny), np.maximum(x, 0.0))
    return x


def sample_truncated_normal(mu: float, var: float, side: str, rng: np.random.Generator) -> float:
    """One draw from N(mu, var) restricted to (-inf, 0) or [0, inf)."""
    if not var > 0.0:
        raise InvalidParameter(f"var must be positive, got {var}")
    if side not in (NEGATIVE, NONNEGATIVE):
        raise InvalidParameter(f"side must be {NEGATIVE!r} or {NONNEGATIVE!r}")
    out = _truncated_draws(
        np.array([mu]), np.array([np.sqrt(var)]), np.array([side == NEGATIVE]), rng
    )
    return float(out[0])


def latent_conditional_params(
    row_index: int, dataset: TobitDataset, psi: CoefVector, sp: SigmaParams
) -> tuple[float, float, str]:
    """Mean, variance and truncation side of one latent score's conditional.

    Censored rows marginalize the unobserved outcome, so their conditional is
    the unit-variance selection prior; uncensored rows condition on y, which
    shifts the mean by gamma / (phi + gamma^2) times the outcome residual and
    shrinks the variance to phi / (phi + gamma^2).
    """
    if not 0 <= row_index < dataset.n:
        raise InvalidParameter(f"row_index {row_index} out of range")
    mu = float(dataset.W[row_index] @ psi.theta)
    if dataset.censored[row_index]:
        return mu, 1.0, NEGATIVE
    g, phi = sp.gamma, sp.phi
    resid = float(dataset.y[row_index] - dataset.X[row_index] @ psi.beta)
    mu += g / (phi + g * g) * resid
    var = 1.0 - g * g / (phi + g * g)
    return mu, var, NONNEGATIVE


def sample_latent(
    dataset: TobitDataset, psi: CoefVector, sp: SigmaParams, rng: np.random.Generator
) -> np.ndarray:
    """Joint draw of all latent scores; sign pattern equals the censoring pattern."""
    if dataset.n == 0:
        return np.empty(0)
    mu = dataset.W @ psi.theta
    sd = np.ones(dataset.n)
    unc = ~dataset.censored
    if np.any(unc):
        g, phi = sp.gamma, sp.phi
        denom = phi + g * g
        resid = dataset.y[unc] - dataset.X[unc] @ psi.beta
        mu[unc] += (g / denom) * resid
        sd[unc] = np.sqrt(phi / denom)
    return _truncated_draws(mu, sd, dataset.censored, rng)


def conditional_log_marginal(
    dataset: TobitDataset,
    z: np.ndarray,
    model: ModelIndicator,
    sp: SigmaParams,
    prior: PriorSpec,
) -> PsiPosterior:
    """Conditional posterior of a model's active coefficients and its log
    integrated likelihood, at fixed latent scores and covariance.

    Value: (log|Psi1| - log|Psi0| - psi0' Psi0^{-1} psi0 + psi1' Psi1^{-1} psi1) / 2
    on the active subspace, all determinants via Cholesky log-determinants.
    The dropped constant depends only on (z, y, sigma), so differences across
    models are exact log conditional Bayes factors.
    """
    z = check_sign_consistency(dataset, z)
    split = dataset.split
    aw, ax = model.active_w, model.active_x
    dw, dx = aw.size, ax.size
    d = dw + dx
    if d == 0:
        return PsiPosterior(model, np.zeros(0), 0.0, np.zeros((0, 0)))
    g, phi = sp.gamma, sp.phi
    a11, a12, a22 = 1.0 + g * g / phi, -g / phi, 1.0 / phi  # inverse error covariance

    psi0, Psi0 = prior.restrict(model)
    try:
        cho0 = cho_factor(Psi0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("prior covariance block is not positive definite") from exc
    logdet0 = 2.0 * float(np.sum(np.log(np.diag(cho0[0]))))
    lin = cho_solve(cho0, psi0)
    quad0 = float(psi0 @ lin)
    prec = cho_solve(cho0, np.eye(d))

    z_unc = z[split.uncensored_idx]
    z_cen = z[split.censored_idx]
    if dw:
        prec[:dw, :dw] += a11 * split.gram_ww_unc[np.ix_(aw, aw)] + split.gram_ww_cen[np.ix_(aw, aw)]
        t_w = split.W_unc.T @ (a11 * z_unc + a12 * split.y_unc) + split.W_cen.T @ z_cen
        lin[:dw] += t_w[aw]
    if dx:
        prec[dw:, dw:] += a22 * split.gram_xx_unc[np.ix_(ax, ax)]
        t_x = split.X_unc.T @ (a12 * z_unc + a22 * split.y_unc)
        lin[dw:] += t_x[ax]
    if dw and dx:
        cross = a12 * split.gram_wx_unc[np.ix_(aw, ax)]
        prec[:dw, dw:] += cross
        prec[dw:, :dw] += cross.T

    if not np.all(np.isfinite(prec)) or not np.all(np.isfinite(lin)):
        raise NumericalError("non-finite values in the coefficient precision system")
    try:
        chol = cholesky(prec, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("coefficient precision matrix is not positive definite") from exc
    psi1 = cho_solve((chol, True), lin)
    logdet_prec = 2.0 * float(np.sum(np.log(np.diag(chol))))
    # psi1' Psi1^{-1} psi1 equals psi1 . lin because Psi1^{-1} psi1 = lin.
    value = 0.5 * (-logdet_prec - logdet0 - quad0 + float(psi1 @ lin))
    return PsiPosterior(model, psi1, value, chol)


def gamma_posterior_params(
    dataset: TobitDataset,
    z: np.ndarray,
    psi: CoefVector,
    phi: float,
    prior: PriorSpec,
) -> GammaPosterior:
    """Conditional posterior N(gamma1, G1); sums run over uncensored rows only."""
    if not phi > 0.0:
        raise InvalidParameter(f"phi must be positive, got {phi}")
    if dataset.n_o == 0:
        return GammaPosterior(gamma1=prior.gamma0, G1=prior.G0)
    split = dataset.split
    e_z = z[split.uncensored_idx] - split.W_unc @ psi.theta
    e_y = split.y_unc - split.X_unc @ psi.beta
    g1_inv = 1.0 / prior.G0 + float(np.dot(e_z, e_z)) / phi
    G1 = 1.0 / g1_inv
    gamma1 = G1 * (prior.gamma0 / prior.G0 + float(np.dot(e_z, e_y)) / phi)
    return GammaPosterior(gamma1=gamma1, G1=G1)


def phi_posterior_params(
    dataset: TobitDataset,
    z: np.ndarray,
    psi: CoefVector,
    gamma: float,
    prior: PriorSpec,
) -> PhiPosterior:
    """Conditional inverse-gamma parameters (s1, S1) for phi."""
    split = dataset.split
    e_z = z[split.uncensored_idx] - split.W_unc @ psi.theta
    e_y = split.y_unc - split.X_unc @ psi.beta
    # Squared-residual form of S1 - S0 keeps the update nonnegative exactly.
    resid = gamma * e_z - e_y
    return PhiPosterior(s1=prior.s0 + dataset.n_o, S1=prior.S0 + float(np.dot(resid, resid)))


def draw_psi(post: PsiPosterior, rng: np.random.Generator) -> CoefVector:
    """Multivariate-normal draw embedded into the full coefficient vector."""
    model = post.model
    full = np.zeros(model.p + model.q)
    d = post.psi1.shape[0]
    if d:
        try:
            chol = np.linalg.cholesky(post.Psi1)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("posterior coefficient covariance lost definiteness") from exc
        full[model.active_positions] = post.psi1 + chol @ rng.standard_normal(d)
    return CoefVector.from_psi(full, model.p)


def draw_gamma(post: GammaPosterior, rng: np.random.Generator) -> float:
    return float(post.gamma1 + np.sqrt(post.G1) * rng.standard_normal())


def draw_phi(post: PhiPosterior, rng: np.random.Generator) -> float:
    """Inverse-gamma draw with shape s1/2 and scale S1/2."""
    return float((0.5 * post.S1) / rng.gamma(0.5 * post.s1))
