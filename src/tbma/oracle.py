"""Independent brute-force oracles backing the test suite.

Everything here is deliberately simpler than the samplers it checks: direct
per-row and whole-data transcriptions of the model (error covariance,
augmented design, complete-data density, latent-score conditional), a plain
tensor-grid quadrature for conditional marginals, exhaustive enumeration of
small model spaces, a generator that draws data straight from the model
equations, and a one-dimensional mixture reference for the uncensored
conjugate reduction.  The committed fixtures pin small datasets with frozen
latent scores so every cross-check is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .conditionals import conditional_log_marginal, model_rows, sweep_statistics
from .core import (
    LatentScores,
    ModelIndicator,
    ModelPrior,
    PriorSpec,
    SigmaParams,
    TobitDataset,
    check_sign_consistency,
)
from .errors import DimensionError, InvalidParameter, ParseError
from .io import read_tagged_csv

__all__ = [
    "build_sigma",
    "augmented_design",
    "complete_data_log_density",
    "batched_log_density",
    "latent_conditional_params",
    "QuadratureSpec",
    "quadrature_conditional_marginal",
    "conditional_log_marginal_rss",
    "enumerate_model_posterior",
    "SynthSpec",
    "SynthTruth",
    "generate_synthetic",
    "conjugate_regression_moments",
    "CbfFixture",
    "FixtureCheck",
    "load_fixture",
    "iter_fixtures",
    "run_fixture_suite",
    "CBF_RATIO_TOL",
    "RSS_FORM_TOL",
]

CBF_RATIO_TOL = 1e-3
RSS_FORM_TOL = 1e-9

# Truncation sides of a latent score's conditional.
NEGATIVE = "negative"
NONNEGATIVE = "nonnegative"

# Fixtures pin the coefficient prior to standard normal per active column.
_FIXTURE_PRIOR_HYPERS = dict(gamma0=0.0, G0=1.0, s0=4.0, S0=4.0)


def build_sigma(sp: SigmaParams) -> np.ndarray:
    """Error covariance [[1, gamma], [gamma, phi + gamma**2]]; determinant phi."""
    g = sp.gamma
    return np.array([[1.0, g], [g, sp.phi + g * g]])


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
    ``psi`` the stacked length-(p + q) coefficient vector.

    Proportional form: the 2*pi normalizing factors are dropped, everything
    else (including the phi power) is kept, so values are comparable across
    parameter settings on the same data.
    """
    z = check_sign_consistency(dataset, z)
    if dataset.n == 0:
        return 0.0
    cen = dataset.censored
    unc = ~cen
    theta, beta = psi[: dataset.p], psi[dataset.p :]
    e_z = z - dataset.W @ theta
    quad = float(np.dot(e_z[cen], e_z[cen]))
    n_o = dataset.n_o
    if n_o:
        g, phi = sp.gamma, sp.phi
        e_zu = e_z[unc]
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-grid resolution: nodes per axis and half-width in prior sd units."""

    nodes_per_axis: int = 201
    half_width: float = 10.0

    def __post_init__(self):
        if self.nodes_per_axis < 3:
            raise InvalidParameter("nodes_per_axis must be at least 3")
        if self.half_width <= 0.0:
            raise InvalidParameter("half_width must be positive")


def batched_log_density(
    dataset: TobitDataset,
    z: np.ndarray,
    sp: SigmaParams,
    model: ModelIndicator,
    coords: np.ndarray,
) -> np.ndarray:
    """Complete-data log density at a batch of active coefficient points.

    Direct transcription of the censored/uncensored quadratic split; written
    independently of the sweep's sufficient-statistic algebra on purpose.
    """
    split = dataset.split
    aw, ax = model.active_w, model.active_x
    dw = aw.size
    theta = coords[:, :dw]
    beta = coords[:, dw:]
    g, phi = sp.gamma, sp.phi

    e_z_cen = z[split.censored_idx][None, :] - theta @ split.W_cen[aw]
    e_z_unc = z[split.uncensored_idx][None, :] - theta @ split.WX_unc[aw]
    e_y = split.y_unc[None, :] - beta @ split.WX_unc[dataset.p + ax]

    quad = np.einsum("ij,ij->i", e_z_cen, e_z_cen)
    quad += (1.0 + g * g / phi) * np.einsum("ij,ij->i", e_z_unc, e_z_unc)
    quad -= 2.0 * (g / phi) * np.einsum("ij,ij->i", e_z_unc, e_y)
    quad += np.einsum("ij,ij->i", e_y, e_y) / phi
    return -0.5 * (dataset.n_o * np.log(phi) + quad)


def quadrature_conditional_marginal(
    dataset: TobitDataset,
    z: np.ndarray,
    model: ModelIndicator,
    sp: SigmaParams,
    prior: PriorSpec,
    spec: QuadratureSpec | None = None,
) -> float:
    """Log of the tensor-grid approximation to the conditional marginal.

    Integrates the complete-data density (2*pi factors dropped, phi power
    kept) against the proper coefficient prior on the active subspace with
    trapezoid weights.  The retained constant differs from the one dropped by
    the sampler's closed form by a model-independent data term, so ratios
    across models at fixed (z, sigma) are directly comparable.
    """
    spec = spec or QuadratureSpec()
    z = check_sign_consistency(dataset, z)
    d = model.d
    if d > 3:
        raise DimensionError(f"tensor-grid quadrature supports d <= 3, got {d}")
    if d == 0:
        return float(batched_log_density(dataset, z, sp, model, np.zeros((1, 0)))[0])

    psi0, Psi0 = prior.restrict(model)
    sds = np.sqrt(np.diag(Psi0))
    m = spec.nodes_per_axis
    axes, log_weights = [], []
    for j in range(d):
        ax = np.linspace(psi0[j] - spec.half_width * sds[j], psi0[j] + spec.half_width * sds[j], m)
        h = ax[1] - ax[0]
        w = np.full(m, h)
        w[0] = w[-1] = 0.5 * h
        axes.append(ax)
        log_weights.append(np.log(w))

    chol0 = np.linalg.cholesky(Psi0)
    logdet0 = 2.0 * float(np.sum(np.log(np.diag(chol0))))
    prior_const = -0.5 * (logdet0 + d * np.log(2.0 * np.pi))

    total = m**d
    chunk = max(1, 4_000_000 // max(1, dataset.n))
    parts = []
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        multi = np.unravel_index(flat, (m,) * d)
        coords = np.column_stack([axes[j][multi[j]] for j in range(d)])
        logw = sum(log_weights[j][multi[j]] for j in range(d))
        loglik = batched_log_density(dataset, z, sp, model, coords)
        centered = solve_triangular(chol0, (coords - psi0).T, lower=True)
        logprior = prior_const - 0.5 * np.sum(centered * centered, axis=0)
        parts.append(logsumexp(loglik + logprior + logw))
    return float(logsumexp(parts))


def conditional_log_marginal_rss(
    dataset: TobitDataset,
    z: np.ndarray,
    model: ModelIndicator,
    sp: SigmaParams,
    prior: PriorSpec,
) -> float:
    """Redundant route to the closed-form conditional log marginal through
    residual sums of squares.

    Assembles the active-column normal equations densely from the raw rows
    and the inverted 2x2 error covariance, then writes the quadratic-form
    ratio as the whitened residual sum of squares at the posterior mean plus
    the prior pullback term.  Restoring the data-only constant makes the
    result match conditional_log_marginal to floating-point accuracy; no
    sampler code is shared, so it serves as an algebraic cross-check.
    """
    z = check_sign_consistency(dataset, z)
    aw, ax = model.active_w, model.active_x
    dw = aw.size
    g, phi = sp.gamma, sp.phi
    (a11, a12), (_, a22) = np.linalg.inv(build_sigma(sp))

    unc = ~dataset.censored
    z_cen, z_unc, y_unc = z[~unc], z[unc], dataset.y[unc]
    W_cen = dataset.W[~unc][:, aw]
    W_unc = dataset.W[unc][:, aw]
    X_unc = dataset.X[unc][:, ax]

    psi0, Psi0 = prior.restrict(model)
    prec = np.linalg.solve(Psi0, np.eye(psi0.size))
    lin = np.linalg.solve(Psi0, psi0)
    prec[:dw, :dw] += W_cen.T @ W_cen + a11 * W_unc.T @ W_unc
    prec[:dw, dw:] += a12 * W_unc.T @ X_unc
    prec[dw:, :dw] += a12 * X_unc.T @ W_unc
    prec[dw:, dw:] += a22 * X_unc.T @ X_unc
    lin[:dw] += W_cen.T @ z_cen + W_unc.T @ (a11 * z_unc + a12 * y_unc)
    lin[dw:] += X_unc.T @ (a12 * z_unc + a22 * y_unc)
    psi1 = np.linalg.solve(prec, lin)
    _, logdet_prec = np.linalg.slogdet(prec)
    _, logdet_Psi0 = np.linalg.slogdet(Psi0)

    r_z_cen = z_cen - W_cen @ psi1[:dw]
    r_z_unc = z_unc - W_unc @ psi1[:dw]
    r_y = y_unc - X_unc @ psi1[dw:]
    rss = float(r_z_cen @ r_z_cen)
    rss += float(a11 * (r_z_unc @ r_z_unc) + 2.0 * a12 * (r_z_unc @ r_y) + a22 * (r_y @ r_y))
    diff = psi0 - psi1
    rss += float(diff @ np.linalg.solve(Psi0, diff))

    data_const = float(z_cen @ z_cen)
    data_const += float(a11 * (z_unc @ z_unc) + 2.0 * a12 * (z_unc @ y_unc) + a22 * (y_unc @ y_unc))
    return 0.5 * (-float(logdet_prec) - float(logdet_Psi0) - rss + data_const)


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


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; the generator is the model itself.

    With ``intercepts`` set, the first column of each design is the constant
    one, so the leading true coefficients act as equation intercepts.
    """

    n: int
    p: int
    q: int
    true_theta: np.ndarray
    true_beta: np.ndarray
    gamma: float
    phi: float
    covariate_distribution: str = "normal"
    seed: int = 0
    intercepts: bool = False

    def __post_init__(self):
        if self.phi <= 0.0:
            raise InvalidParameter("phi must be positive")
        if self.covariate_distribution not in ("normal", "uniform"):
            raise InvalidParameter("covariate_distribution must be 'normal' or 'uniform'")
        object.__setattr__(self, "true_theta", np.asarray(self.true_theta, dtype=np.float64))
        object.__setattr__(self, "true_beta", np.asarray(self.true_beta, dtype=np.float64))
        if self.true_theta.shape != (self.p,) or self.true_beta.shape != (self.q,):
            raise InvalidParameter("true coefficient lengths must match p and q")
        if self.intercepts and (self.p < 1 or self.q < 1):
            raise InvalidParameter("intercepts require p >= 1 and q >= 1")


@dataclass(frozen=True)
class SynthTruth:
    theta: np.ndarray
    beta: np.ndarray
    gamma: float
    phi: float
    censored_fraction: float
    z: np.ndarray
    y_star: np.ndarray


def generate_synthetic(spec: SynthSpec) -> tuple[TobitDataset, SynthTruth]:
    """Draw a dataset from the two-equation model and record the truth.

    Errors are built as eps ~ N(0, 1) and eta = gamma * eps + sqrt(phi) * u,
    which reproduces the unit selection variance, covariance gamma and
    outcome variance phi + gamma**2 exactly.
    """
    rng = np.random.default_rng(spec.seed)
    shape_w, shape_x = (spec.n, spec.p), (spec.n, spec.q)
    if spec.covariate_distribution == "normal":
        W = rng.standard_normal(shape_w)
        X = rng.standard_normal(shape_x)
    else:
        half = np.sqrt(3.0)  # unit-variance uniform
        W = rng.uniform(-half, half, size=shape_w)
        X = rng.uniform(-half, half, size=shape_x)
    if spec.intercepts:
        W[:, 0] = 1.0
        X[:, 0] = 1.0
    eps = rng.standard_normal(spec.n)
    eta = spec.gamma * eps + np.sqrt(spec.phi) * rng.standard_normal(spec.n)
    z = W @ spec.true_theta + eps
    y_star = X @ spec.true_beta + eta
    censored = z < 0.0
    y = np.where(censored, 0.0, y_star)
    dataset = TobitDataset(
        W=W,
        X=X,
        y=y,
        censored=censored,
        column_names_w=tuple(f"w{j + 1}" for j in range(spec.p)),
        column_names_x=tuple(f"x{j + 1}" for j in range(spec.q)),
    )
    truth = SynthTruth(
        theta=spec.true_theta,
        beta=spec.true_beta,
        gamma=spec.gamma,
        phi=spec.phi,
        censored_fraction=float(np.mean(censored)),
        z=z,
        y_star=y_star,
    )
    return dataset, truth


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


# ---------------------------------------------------------------------------
# Committed cross-check fixtures


@dataclass(frozen=True)
class CbfFixture:
    """Small frozen problem: data, latent scores, covariance and a model pair."""

    name: str
    dataset: TobitDataset
    z: np.ndarray
    sp: SigmaParams
    model_a: ModelIndicator
    model_b: ModelIndicator
    quadrature: QuadratureSpec

    @property
    def prior(self) -> PriorSpec:
        return PriorSpec(
            theta0=np.zeros(self.dataset.p),
            Theta0=np.eye(self.dataset.p),
            beta0=np.zeros(self.dataset.q),
            B0=np.eye(self.dataset.q),
            **_FIXTURE_PRIOR_HYPERS,
        )


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    cbf_rel_err: float
    rss_form_err: float
    elapsed: float

    @property
    def cbf_ok(self) -> bool:
        return self.cbf_rel_err <= CBF_RATIO_TOL

    @property
    def rss_ok(self) -> bool:
        return self.rss_form_err <= RSS_FORM_TOL

    @property
    def ok(self) -> bool:
        return self.cbf_ok and self.rss_ok


def _parse_bits(text: str) -> np.ndarray:
    if not set(text) <= {"0", "1"}:
        raise ParseError(f"bad bit string {text!r}")
    return np.array([c == "1" for c in text], dtype=bool)


def load_fixture(path) -> CbfFixture:
    meta, header, rows = read_tagged_csv(path)
    names_w = [c for c in header if c.startswith("w")]
    names_x = [c for c in header if c.startswith("x")]
    col = {name: i for i, name in enumerate(header)}
    data = np.array([[float(cell) for cell in row] for row in rows])
    W = data[:, [col[c] for c in names_w]]
    X = data[:, [col[c] for c in names_x]]
    censored = data[:, col["censored"]].astype(bool)
    dataset = TobitDataset(
        W=W,
        X=X,
        y=data[:, col["y"]],
        censored=censored,
        column_names_w=tuple(names_w),
        column_names_x=tuple(names_x),
    )
    forced = np.zeros(dataset.p + dataset.q, dtype=bool)

    def model(tag: str) -> ModelIndicator:
        bits_w, bits_x = _parse_bits(meta[f"{tag}_w"]), _parse_bits(meta[f"{tag}_x"])
        if bits_w.size != dataset.p or bits_x.size != dataset.q:
            raise ParseError(f"fixture {path}: {tag} needs {dataset.p} + {dataset.q} bits")
        return ModelIndicator(np.concatenate([bits_w, bits_x]), forced, dataset.p)

    name = meta.get("name") or Path(str(path)).stem
    return CbfFixture(
        name=name,
        dataset=dataset,
        z=data[:, col["z"]],
        sp=SigmaParams(gamma=float(meta["gamma"]), phi=float(meta["phi"])),
        model_a=model("model_a"),
        model_b=model("model_b"),
        quadrature=QuadratureSpec(
            nodes_per_axis=int(meta.get("nodes_per_axis", 201)),
            half_width=float(meta.get("half_width", 10.0)),
        ),
    )


def iter_fixtures(directory=None) -> list[CbfFixture]:
    """Load every committed fixture, or those in an explicit directory."""
    root = resources.files("tbma").joinpath("fixtures") if directory is None else Path(directory)
    paths = sorted((p for p in root.iterdir() if p.name.endswith(".csv")), key=lambda p: p.name)
    return [load_fixture(p) for p in paths]


def run_fixture_suite(directory=None) -> list[FixtureCheck]:
    """Cross-check the closed form against quadrature and the residual rewrite.

    Per fixture: the Bayes-factor ratio between the two models must match the
    quadrature ratio to CBF_RATIO_TOL relative, and the residual-sum rewrite
    must reproduce each model's log marginal to RSS_FORM_TOL absolute.
    """
    checks = []
    for fx in iter_fixtures(directory):
        start = perf_counter()
        prior = fx.prior
        stats = sweep_statistics(model_rows(fx.dataset, fx.model_a), LatentScores.from_rows(fx.dataset, fx.z), fx.sp)
        log_a = conditional_log_marginal(stats, prior, fx.model_a)
        log_b = conditional_log_marginal(stats, prior, fx.model_b)
        quad_a = quadrature_conditional_marginal(fx.dataset, fx.z, fx.model_a, fx.sp, prior, fx.quadrature)
        quad_b = quadrature_conditional_marginal(fx.dataset, fx.z, fx.model_b, fx.sp, prior, fx.quadrature)
        delta_closed = log_b.log_conditional_marginal - log_a.log_conditional_marginal
        cbf_rel_err = abs(np.expm1(delta_closed - (quad_b - quad_a)))

        rss_a = conditional_log_marginal_rss(fx.dataset, fx.z, fx.model_a, fx.sp, prior)
        rss_b = conditional_log_marginal_rss(fx.dataset, fx.z, fx.model_b, fx.sp, prior)
        rss_form_err = max(
            abs(rss_a - log_a.log_conditional_marginal),
            abs(rss_b - log_b.log_conditional_marginal),
            abs((rss_b - rss_a) - delta_closed),
        )
        checks.append(
            FixtureCheck(
                name=fx.name,
                cbf_rel_err=float(cbf_rel_err),
                rss_form_err=float(rss_form_err),
                elapsed=perf_counter() - start,
            )
        )
    return checks
