"""Brute-force references that only the tests use.

Each is deliberately simpler than the sampler code it checks: a per-row
augmented design and latent-score conditional, the whole-data complete-data
density, exhaustive enumeration of small model spaces, and a
one-dimensional mixture reference for the uncensored conjugate reduction.
Test files import this module the way they import ``conftest``.  The
oracles that ``tbma validate`` runs stay in ``tbma.oracle``.
"""

import itertools

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from tbma.conditionals import conditional_log_marginal, model_rows, sweep_statistics
from tbma.core import LatentScores, ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from tbma.errors import DimensionError, InvalidParameter

# Truncation sides of a latent score's conditional.
NEGATIVE = "negative"
NONNEGATIVE = "nonnegative"


def augmented_design(row_index: int, dataset: TobitDataset, model: ModelIndicator):
    """Stacked per-row response and design for the active coefficient set.

    Returns ``(y_i, X_i)`` where ``y_i`` is a 2-vector whose first slot is a
    placeholder (0.0) for the latent value supplied by the caller at sampling
    time, and ``X_i`` is 2 x d(M).  On censored rows the outcome slot of
    ``y_i`` and the second row of ``X_i`` are zero.
    """
    if not 0 <= row_index < dataset.n:
        raise InvalidParameter(f"row_index {row_index} out of range")
    aw, ax = model.active_w, model.active_x
    dw, dx = aw.size, ax.size
    xt = np.zeros((2, dw + dx))
    xt[0, :dw] = dataset.W[row_index, aw]
    yt = np.zeros(2)
    if not dataset.censored[row_index]:
        xt[1, dw:] = dataset.X[row_index, ax]
        yt[1] = dataset.y[row_index]
    return yt, xt


def complete_data_log_density(
    dataset: TobitDataset, z: np.ndarray, psi: np.ndarray, sp: SigmaParams
) -> float:
    """Log joint density of (z, observed y) given all parameters, with
    ``psi`` the stacked length-(p + q) coefficient vector and ``z`` in row
    order.

    Proportional form: the 2*pi normalizing factors are dropped, everything
    else (including the phi power) is kept, so values are comparable across
    parameter settings on the same data.
    """
    latent = LatentScores.from_rows(dataset, z)
    if dataset.n == 0:
        return 0.0
    cen = dataset.censored
    unc = ~cen
    theta, beta = psi[: dataset.p], psi[dataset.p :]
    e_z_cen = latent.z_cen - dataset.W[cen] @ theta
    quad = float(np.dot(e_z_cen, e_z_cen))
    n_o = dataset.n_o
    if n_o:
        g, phi = sp.gamma, sp.phi
        e_zu = latent.z_unc - dataset.W[unc] @ theta
        e_yu = dataset.y[unc] - dataset.X[unc] @ beta
        quad += float(
            (1.0 + g * g / phi) * np.dot(e_zu, e_zu)
            - 2.0 * (g / phi) * np.dot(e_zu, e_yu)
            + np.dot(e_yu, e_yu) / phi
        )
    return -0.5 * (n_o * np.log(sp.phi) + quad)


def latent_conditional_params(
    row_index: int, dataset: TobitDataset, psi: np.ndarray, sp: SigmaParams
) -> tuple[float, float, str]:
    """Mean, variance and truncation side of one latent score's conditional,
    with ``psi`` the stacked length-(p + q) coefficient vector.

    Censored rows marginalize the unobserved outcome, so their conditional is
    the unit-variance selection prior; uncensored rows condition on y, which
    shifts the mean by gamma / (phi + gamma^2) times the outcome residual and
    shrinks the variance to phi / (phi + gamma^2).
    """
    if not 0 <= row_index < dataset.n:
        raise InvalidParameter(f"row_index {row_index} out of range")
    theta, beta = psi[: dataset.p], psi[dataset.p :]
    mu = float(dataset.W[row_index] @ theta)
    if dataset.censored[row_index]:
        return mu, 1.0, NEGATIVE
    g, phi = sp.gamma, sp.phi
    resid = float(dataset.y[row_index] - dataset.X[row_index] @ beta)
    mu += g / (phi + g * g) * resid
    var = 1.0 - g * g / (phi + g * g)
    return mu, var, NONNEGATIVE


def enumerate_model_posterior(
    dataset: TobitDataset,
    z: np.ndarray,
    sp: SigmaParams,
    prior: PriorSpec,
    model_prior: ModelPrior,
    forced: np.ndarray | None = None,
) -> dict[tuple[bool, ...], float]:
    """Exact conditional posterior over every model, keyed by inclusion pattern.

    Walks all combinations of the free bits, scores each with the closed-form
    conditional marginal plus the log model prior, and normalizes with
    log-sum-exp.  Probabilities sum to one to within accumulation error.
    """
    p, q = dataset.p, dataset.q
    if p + q > 12:
        raise DimensionError(f"enumeration supports p + q <= 12, got {p + q}")
    base = ModelIndicator.null_model(p, q, forced)
    free = base.free_positions()

    stats = sweep_statistics(model_rows(dataset, base), LatentScores.from_rows(dataset, z), sp)
    keys, scores = [], []
    for bits in itertools.product((False, True), repeat=free.size):
        include = base.include.copy()
        include[free] = bits
        model = ModelIndicator(include, base.forced, p)
        score = conditional_log_marginal(stats, prior, model).log_conditional_marginal
        if model_prior.kind == "bernoulli":
            k = sum(bits)
            score += k * np.log(model_prior.pi) + (free.size - k) * np.log1p(-model_prior.pi)
        keys.append(model.key())
        scores.append(score)

    scores = np.asarray(scores)
    probs = np.exp(scores - logsumexp(scores))
    probs /= probs.sum()
    return dict(zip(keys, probs.tolist()))


def conjugate_regression_moments(
    y: np.ndarray,
    X: np.ndarray,
    beta0: np.ndarray,
    B0: np.ndarray,
    s0: float,
    S0: float,
    n_nodes: int = 801,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the coefficients in y = X b + noise.

    Semi-conjugate reference: conditional on the noise variance the posterior
    is the textbook normal update, and the variance is integrated out on a
    log grid against its exact marginal posterior (Gaussian evidence times
    the inverse-gamma prior).  A wide scan locates the variance mass and a
    second pass refines the grid there.  Used as the independent target for
    the uncensored, decoupled reduction of the sweep.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    B0_inv = np.linalg.inv(B0)
    xty = X.T @ y
    prior_solve = B0_inv @ beta0

    def scan(log_phi):
        m = log_phi.size
        log_post = np.empty(m)
        means = np.empty((m, k))
        covs = np.empty((m, k, k))
        for i, phi in enumerate(np.exp(log_phi)):
            prec = B0_inv + (X.T @ X) / phi
            cov = np.linalg.inv(prec)
            means[i] = cov @ (prior_solve + xty / phi)
            covs[i] = cov
            # Gaussian evidence at this phi via the marginal N(X b0, phi I + X B0 X').
            marg_cov = phi * np.eye(n) + X @ B0 @ X.T
            chol = np.linalg.cholesky(marg_cov)
            white = solve_triangular(chol, y - X @ beta0, lower=True)
            log_evidence = -0.5 * (
                n * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol))) + white @ white
            )
            # Unnormalized inverse-gamma prior; weights are renormalized.
            log_prior = -(0.5 * s0 + 1.0) * np.log(phi) - 0.5 * S0 / phi
            log_post[i] = log_evidence + log_prior + np.log(phi)  # log-grid Jacobian
        w = np.exp(log_post - logsumexp(log_post))
        w[0] *= 0.5
        w[-1] *= 0.5
        w /= w.sum()
        return w, means, covs

    coef_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef_ls
    like_center = np.log(max(float(resid @ resid) / max(n - k, 1), 1e-12))
    prior_center = np.log(S0 / s0)
    wide = np.linspace(min(like_center, prior_center) - 8.0, max(like_center, prior_center) + 8.0, 2001)
    w, _, _ = scan(wide)
    center = float(w @ wide)
    spread = float(np.sqrt(max(w @ (wide - center) ** 2, (wide[1] - wide[0]) ** 2)))
    fine = np.linspace(center - 10.0 * spread, center + 10.0 * spread, n_nodes)
    w, means, covs = scan(fine)
    mean = w @ means
    second = np.einsum("i,ijk->jk", w, covs + np.einsum("ij,ik->ijk", means, means))
    cov = second - np.outer(mean, mean)
    return mean, cov
