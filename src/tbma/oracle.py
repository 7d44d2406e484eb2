"""What ``tbma validate`` and ``tbma synth`` run: independent references for
the sampler's closed form, and a generator that draws data from the model.

``tbma validate`` checks the conditional Bayes factor of each committed
fixture against a plain tensor-grid quadrature of the complete-data density
(``quadrature_conditional_marginal`` over ``batched_log_density``), and each
model's conditional log marginal against a residual-sum rewrite
(``conditional_log_marginal_rss``).  Both gather the raw rows by the
censoring mask, never the sampler's row split (``TobitDataset.split``), and
share no algebra with the sampler; they take the latent scores in row order
and check the sign contract with ``LatentScores.from_rows``.  The fixtures
pin small datasets with frozen latent scores, so every check is reproducible
byte for byte; ``read_tagged_table`` reads them by the parse that data and
traces take.  ``tbma synth`` draws data with ``generate_synthetic``.

The references that only the test suite uses live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .conditionals import conditional_log_marginal, model_rows, sweep_statistics
from .core import LatentScores, ModelIndicator, PriorSpec, SigmaParams, TobitDataset
from .errors import DimensionError, InvalidParameter, ParseError
from .io import check_cell_domains, read_tagged_table

__all__ = [
    "build_sigma",
    "batched_log_density",
    "QuadratureSpec",
    "quadrature_conditional_marginal",
    "conditional_log_marginal_rss",
    "SynthSpec",
    "SynthTruth",
    "generate_synthetic",
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

# Fixtures pin the coefficient prior to standard normal per active column.
_FIXTURE_PRIOR_HYPERS = dict(gamma0=0.0, G0=1.0, s0=4.0, S0=4.0)
# Metadata entries every fixture carries.
_FIXTURE_KEYS = ("gamma", "phi", "model_a_w", "model_a_x", "model_b_w", "model_b_x")


def build_sigma(sp: SigmaParams) -> np.ndarray:
    """Error covariance [[1, gamma], [gamma, phi + gamma**2]]; determinant phi."""
    g = sp.gamma
    return np.array([[1.0, g], [g, sp.phi + g * g]])


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
    """Complete-data log density at a batch of active coefficient points,
    with ``z`` in row order.

    Direct transcription of the censored/uncensored quadratic split over the
    raw rows; written independently of the sweep's row split and
    sufficient-statistic algebra on purpose.
    """
    latent = LatentScores.from_rows(dataset, z)
    aw, ax = model.active_w, model.active_x
    dw = aw.size
    theta = coords[:, :dw]
    beta = coords[:, dw:]
    g, phi = sp.gamma, sp.phi

    # Active columns over each row half, one C-contiguous row per covariate.
    unc = ~dataset.censored
    W_cen = np.ascontiguousarray(dataset.W[~unc][:, aw].T)
    W_unc = np.ascontiguousarray(dataset.W[unc][:, aw].T)
    X_unc = np.ascontiguousarray(dataset.X[unc][:, ax].T)
    e_z_cen = latent.z_cen[None, :] - theta @ W_cen
    e_z_unc = latent.z_unc[None, :] - theta @ W_unc
    e_y = dataset.y[unc][None, :] - beta @ X_unc

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
    latent = LatentScores.from_rows(dataset, z)
    aw, ax = model.active_w, model.active_x
    dw = aw.size
    (a11, a12), (_, a22) = np.linalg.inv(build_sigma(sp))

    unc = ~dataset.censored
    z_cen, z_unc, y_unc = latent.z_cen, latent.z_unc, dataset.y[unc]
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
        if self.n < 1:
            raise InvalidParameter(f"n must be at least 1, got {self.n}")
        for name, width, coef in (("p", self.p, "true_theta"), ("q", self.q, "true_beta")):
            if width < 0:
                raise InvalidParameter(f"{name} must be at least 0, got {width}")
            values = np.asarray(getattr(self, coef), dtype=np.float64)
            object.__setattr__(self, coef, values)
            if values.shape != (width,):
                raise InvalidParameter(f"{coef} must hold {name} = {width} values, got {values.size}")
            if not np.isfinite(values).all():
                raise InvalidParameter(f"{coef} must be finite, got {values.tolist()}")
        if not np.isfinite(self.gamma):
            raise InvalidParameter(f"gamma must be finite, got {self.gamma}")
        if not (np.isfinite(self.phi) and self.phi > 0.0):
            raise InvalidParameter(f"phi must be positive and finite, got {self.phi}")
        if self.covariate_distribution not in ("normal", "uniform"):
            raise InvalidParameter("covariate_distribution must be 'normal' or 'uniform'")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameter("seed must fit in an unsigned 64-bit integer")
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
    """A fixture file: its metadata entries and a body of numbers, read by
    ``read_tagged_table``.  A missing metadata entry or column, or a
    metadata value that is not a number, is a ParseError naming the file; a
    non-finite cell or a ``censored`` cell other than 0 or 1 is one naming
    the file, the data row and the column."""
    meta, header, table = read_tagged_table(
        path, lambda meta, header: np.dtype([("cells", np.float64, (len(header),))])
    )
    for kind, names, present in (("metadata entry", _FIXTURE_KEYS, meta), ("column", ("y", "censored", "z"), header)):
        for name in names:
            if name not in present:
                raise ParseError(f"fixture {path} has no {kind} {name!r}")
    names_w = [c for c in header if c.startswith("w")]
    names_x = [c for c in header if c.startswith("x")]
    col = {name: i for i, name in enumerate(header)}
    data = table["cells"]
    flags = data[:, [col["censored"]]]
    check_cell_domains(path, header, (
        (0, data, ~np.isfinite(data), "finite"),
        (col["censored"], flags, (flags != 0) & (flags != 1), "0 or 1"),
    ))
    W = data[:, [col[c] for c in names_w]]
    X = data[:, [col[c] for c in names_x]]
    censored = flags[:, 0] == 1
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

    def number(key: str, kind=float, default=None):
        raw = meta.get(key, default)
        try:
            return kind(raw)
        except ValueError:
            words = "an integer" if kind is int else "a number"
            raise ParseError(f"fixture {path}: metadata {key} = {raw!r} is not {words}") from None

    name = meta.get("name") or Path(str(path)).stem
    return CbfFixture(
        name=name,
        dataset=dataset,
        z=data[:, col["z"]],
        sp=SigmaParams(gamma=number("gamma"), phi=number("phi")),
        model_a=model("model_a"),
        model_b=model("model_b"),
        quadrature=QuadratureSpec(
            nodes_per_axis=number("nodes_per_axis", int, "201"),
            half_width=number("half_width", float, "10.0"),
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
