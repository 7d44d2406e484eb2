"""Domain types and density evaluation for the two-equation censored-outcome model.

A latent selection score z = W theta + eps decides whether the outcome
y = X beta + eta is observed (z >= 0) or censored (z < 0).  The error pair
(eps, eta) is bivariate normal with unit selection variance, so the error
covariance is fully described by the pair (gamma, phi): the off-diagonal
entry and the conditional outcome variance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParameter, InvalidState

__all__ = [
    "TobitDataset",
    "SigmaParams",
    "CoefVector",
    "ModelIndicator",
    "ModelPrior",
    "PriorSpec",
    "build_sigma",
    "augmented_design",
    "complete_data_log_density",
]


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _DesignSplit:
    """Row split and cross products that depend only on the censoring pattern.

    The latent sign pattern always equals the censoring pattern, so these
    sums are fixed for the lifetime of a dataset and shared by every sweep.
    """

    uncensored_idx: np.ndarray
    censored_idx: np.ndarray
    W_unc: np.ndarray
    X_unc: np.ndarray
    y_unc: np.ndarray
    W_cen: np.ndarray
    gram_ww_unc: np.ndarray
    gram_wx_unc: np.ndarray
    gram_xx_unc: np.ndarray
    gram_ww_cen: np.ndarray


@dataclass(frozen=True, eq=False)
class TobitDataset:
    """Immutable table of observations for both equations.

    ``censored[i]`` is true when the outcome of row ``i`` is unobserved; the
    stored ``y`` value is ignored on such rows (loaders write 0 there).
    """

    W: np.ndarray
    X: np.ndarray
    y: np.ndarray
    censored: np.ndarray
    column_names_w: tuple[str, ...]
    column_names_x: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen_array(self.W, np.float64))
        object.__setattr__(self, "X", _frozen_array(self.X, np.float64))
        object.__setattr__(self, "y", _frozen_array(self.y, np.float64))
        object.__setattr__(self, "censored", _frozen_array(self.censored, bool))
        object.__setattr__(self, "column_names_w", tuple(self.column_names_w))
        object.__setattr__(self, "column_names_x", tuple(self.column_names_x))
        if self.W.ndim != 2 or self.X.ndim != 2:
            raise InvalidParameter("W and X must be 2-d matrices")
        n = self.W.shape[0]
        if self.X.shape[0] != n or self.y.shape != (n,) or self.censored.shape != (n,):
            raise InvalidParameter("row counts of W, X, y and censored must match")
        if len(self.column_names_w) != self.W.shape[1]:
            raise InvalidParameter("column_names_w length must equal the column count of W")
        if len(self.column_names_x) != self.X.shape[1]:
            raise InvalidParameter("column_names_x length must equal the column count of X")
        if len(set(self.column_names_w)) != len(self.column_names_w):
            raise InvalidParameter("selection column names must be unique")
        if len(set(self.column_names_x)) != len(self.column_names_x):
            raise InvalidParameter("outcome column names must be unique")
        if not np.all(np.isfinite(self.W)) or not np.all(np.isfinite(self.X)):
            raise InvalidParameter("covariates contain non-finite values")
        if not np.all(np.isfinite(self.y[~self.censored])):
            raise InvalidParameter("y contains non-finite values at uncensored rows")

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return self.W.shape[1]

    @property
    def q(self) -> int:
        return self.X.shape[1]

    @property
    def n_o(self) -> int:
        return int(np.count_nonzero(~self.censored))

    @cached_property
    def split(self) -> _DesignSplit:
        unc = np.flatnonzero(~self.censored)
        cen = np.flatnonzero(self.censored)
        W_unc = np.ascontiguousarray(self.W[unc])
        X_unc = np.ascontiguousarray(self.X[unc])
        y_unc = np.ascontiguousarray(self.y[unc])
        W_cen = np.ascontiguousarray(self.W[cen])
        return _DesignSplit(
            uncensored_idx=unc,
            censored_idx=cen,
            W_unc=W_unc,
            X_unc=X_unc,
            y_unc=y_unc,
            W_cen=W_cen,
            gram_ww_unc=W_unc.T @ W_unc,
            gram_wx_unc=W_unc.T @ X_unc,
            gram_xx_unc=X_unc.T @ X_unc,
            gram_ww_cen=W_cen.T @ W_cen,
        )

    @cached_property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for part in (self.W, self.X, self.y, self.censored):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update("|".join(self.column_names_w).encode())
        h.update(b"::")
        h.update("|".join(self.column_names_x).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class SigmaParams:
    """Pair (gamma, phi) parameterizing the 2x2 error covariance."""

    gamma: float
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or not np.isfinite(self.phi):
            raise InvalidParameter("sigma parameters must be finite")
        if self.phi <= 0.0:
            raise InvalidParameter(f"phi must be positive, got {self.phi}")


def build_sigma(sp: SigmaParams) -> np.ndarray:
    """Error covariance [[1, gamma], [gamma, phi + gamma**2]]; determinant phi."""
    if sp.phi <= 0.0:
        raise InvalidParameter(f"phi must be positive, got {sp.phi}")
    g = sp.gamma
    return np.array([[1.0, g], [g, sp.phi + g * g]])


@dataclass(frozen=True, eq=False)
class CoefVector:
    """Selection and outcome coefficients with a stacked view."""

    theta: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_array(np.atleast_1d(self.theta), np.float64))
        object.__setattr__(self, "beta", _frozen_array(np.atleast_1d(self.beta), np.float64))

    @property
    def psi(self) -> np.ndarray:
        return np.concatenate([self.theta, self.beta])

    @classmethod
    def from_psi(cls, psi: np.ndarray, p: int) -> "CoefVector":
        psi = np.asarray(psi, dtype=np.float64)
        return cls(theta=psi[:p], beta=psi[p:])

    @classmethod
    def zeros(cls, p: int, q: int) -> "CoefVector":
        return cls(theta=np.zeros(p), beta=np.zeros(q))


@dataclass(frozen=True, eq=False)
class ModelIndicator:
    """Inclusion bits for both equations, with always-included (forced) masks."""

    include_w: np.ndarray
    include_x: np.ndarray
    forced_w: np.ndarray
    forced_x: np.ndarray

    def __post_init__(self):
        for name in ("include_w", "include_x", "forced_w", "forced_x"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), bool))
        if self.include_w.shape != self.forced_w.shape or self.include_x.shape != self.forced_x.shape:
            raise InvalidParameter("forced masks must match the include vectors in length")
        if np.any(self.forced_w & ~self.include_w) or np.any(self.forced_x & ~self.include_x):
            raise InvalidParameter("forced bits must be set in the include vectors")

    @property
    def p(self) -> int:
        return self.include_w.shape[0]

    @property
    def q(self) -> int:
        return self.include_x.shape[0]

    @cached_property
    def active_w(self) -> np.ndarray:
        return np.flatnonzero(self.include_w)

    @cached_property
    def active_x(self) -> np.ndarray:
        return np.flatnonzero(self.include_x)

    @property
    def d(self) -> int:
        return self.active_w.size + self.active_x.size

    @cached_property
    def active_positions(self) -> np.ndarray:
        """Active indices into the stacked length-(p+q) coefficient vector."""
        return np.concatenate([self.active_w, self.p + self.active_x])

    def key(self) -> tuple[bool, ...]:
        """Hashable identity of the inclusion pattern."""
        return tuple(bool(b) for b in np.concatenate([self.include_w, self.include_x]))

    def free_positions(self) -> np.ndarray:
        """Stacked positions whose bit may be toggled."""
        return np.flatnonzero(~np.concatenate([self.forced_w, self.forced_x]))

    def n_free_active(self) -> int:
        forced = np.concatenate([self.forced_w, self.forced_x])
        include = np.concatenate([self.include_w, self.include_x])
        return int(np.count_nonzero(include & ~forced))

    def with_toggled(self, position: int) -> "ModelIndicator":
        """Return a copy with one stacked inclusion bit flipped."""
        if not 0 <= position < self.p + self.q:
            raise InvalidParameter(f"position {position} out of range")
        include_w = np.array(self.include_w)
        include_x = np.array(self.include_x)
        if position < self.p:
            if self.forced_w[position]:
                raise InvalidParameter("cannot toggle a forced selection bit")
            include_w[position] = not include_w[position]
        else:
            j = position - self.p
            if self.forced_x[j]:
                raise InvalidParameter("cannot toggle a forced outcome bit")
            include_x[j] = not include_x[j]
        return ModelIndicator(include_w, include_x, self.forced_w, self.forced_x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelIndicator):
            return NotImplemented
        return (
            self.key() == other.key()
            and np.array_equal(self.forced_w, other.forced_w)
            and np.array_equal(self.forced_x, other.forced_x)
        )

    def __hash__(self):
        return hash((self.key(), self.forced_w.tobytes(), self.forced_x.tobytes()))

    @classmethod
    def full_model(cls, p: int, q: int, forced_w=None, forced_x=None) -> "ModelIndicator":
        return cls(
            include_w=np.ones(p, dtype=bool),
            include_x=np.ones(q, dtype=bool),
            forced_w=np.zeros(p, dtype=bool) if forced_w is None else forced_w,
            forced_x=np.zeros(q, dtype=bool) if forced_x is None else forced_x,
        )

    @classmethod
    def null_model(cls, p: int, q: int, forced_w=None, forced_x=None) -> "ModelIndicator":
        fw = np.zeros(p, dtype=bool) if forced_w is None else np.asarray(forced_w, dtype=bool)
        fx = np.zeros(q, dtype=bool) if forced_x is None else np.asarray(forced_x, dtype=bool)
        return cls(include_w=fw.copy(), include_x=fx.copy(), forced_w=fw, forced_x=fx)


@dataclass(frozen=True)
class ModelPrior:
    """Prior over the model space: flat, or independent Bernoulli per free covariate."""

    kind: str = "flat"
    pi: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "bernoulli"):
            raise InvalidParameter(f"unknown model prior kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.pi is None or not 0.0 < self.pi < 1.0:
                raise InvalidParameter("bernoulli model prior needs pi in (0, 1)")

    def log_ratio(self, proposed: ModelIndicator, current: ModelIndicator) -> float:
        """log pr(proposed) - log pr(current); forced bits carry no mass."""
        if self.kind == "flat":
            return 0.0
        delta = proposed.n_free_active() - current.n_free_active()
        return delta * (np.log(self.pi) - np.log1p(-self.pi))


def _check_spd(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if mat.shape[0] != mat.shape[1]:
        raise InvalidParameter(f"{name} must be square")
    if mat.size and not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise InvalidParameter(f"{name} must be symmetric")
    if mat.size:
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise InvalidParameter(f"{name} must be positive definite") from None
    return mat


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Coefficient and covariance priors, plus the prior over the model space.

    The stacked prior mean and block-diagonal prior covariance follow from
    the per-equation blocks; phi carries an inverse-gamma prior with density
    proportional to x**(-s0/2 - 1) * exp(-S0 / (2 x)).
    """

    theta0: np.ndarray
    Theta0: np.ndarray
    beta0: np.ndarray
    B0: np.ndarray
    gamma0: float
    G0: float
    s0: float
    S0: float
    model_prior: ModelPrior = field(default_factory=ModelPrior)

    def __post_init__(self):
        object.__setattr__(self, "theta0", _frozen_array(np.atleast_1d(self.theta0), np.float64))
        object.__setattr__(self, "beta0", _frozen_array(np.atleast_1d(self.beta0), np.float64))
        object.__setattr__(self, "Theta0", _frozen_array(_check_spd("Theta0", self.Theta0), np.float64))
        object.__setattr__(self, "B0", _frozen_array(_check_spd("B0", self.B0), np.float64))
        if self.theta0.shape[0] != self.Theta0.shape[0]:
            raise InvalidParameter("theta0 and Theta0 dimensions must match")
        if self.beta0.shape[0] != self.B0.shape[0]:
            raise InvalidParameter("beta0 and B0 dimensions must match")
        for name in ("G0", "s0", "S0"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameter(f"{name} must be positive")

    @property
    def p(self) -> int:
        return self.theta0.shape[0]

    @property
    def q(self) -> int:
        return self.beta0.shape[0]

    @property
    def psi0(self) -> np.ndarray:
        return np.concatenate([self.theta0, self.beta0])

    @property
    def Psi0(self) -> np.ndarray:
        p, q = self.p, self.q
        out = np.zeros((p + q, p + q))
        out[:p, :p] = self.Theta0
        out[p:, p:] = self.B0
        return out

    def restrict(self, model: ModelIndicator) -> tuple[np.ndarray, np.ndarray]:
        """Prior mean and covariance on the active coefficient subspace."""
        aw, ax = model.active_w, model.active_x
        mean = np.concatenate([self.theta0[aw], self.beta0[ax]])
        dw = aw.size
        cov = np.zeros((model.d, model.d))
        cov[:dw, :dw] = self.Theta0[np.ix_(aw, aw)]
        cov[dw:, dw:] = self.B0[np.ix_(ax, ax)]
        return mean, cov

    @cached_property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for part in (self.theta0, self.Theta0, self.beta0, self.B0):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr((self.gamma0, self.G0, self.s0, self.S0, self.model_prior)).encode())
        return h.hexdigest()


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


def check_sign_consistency(dataset: TobitDataset, z: np.ndarray) -> np.ndarray:
    """Require z < 0 exactly on censored rows; returns z as a float array."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (dataset.n,):
        raise InvalidParameter(f"z must have length {dataset.n}")
    neg = z < 0.0
    if not np.array_equal(neg, dataset.censored):
        raise InvalidState("sign of z is inconsistent with the censoring pattern")
    return z


def complete_data_log_density(
    dataset: TobitDataset, z: np.ndarray, psi: CoefVector, sp: SigmaParams
) -> float:
    """Log joint density of (z, observed y) given all parameters.

    Proportional form: the 2*pi normalizing factors are dropped, everything
    else (including the phi power) is kept, so values are comparable across
    parameter settings on the same data.
    """
    z = check_sign_consistency(dataset, z)
    if dataset.n == 0:
        return 0.0
    cen = dataset.censored
    unc = ~cen
    e_z = z - dataset.W @ psi.theta
    quad = float(np.dot(e_z[cen], e_z[cen]))
    n_o = dataset.n_o
    if n_o:
        g, phi = sp.gamma, sp.phi
        e_zu = e_z[unc]
        e_yu = dataset.y[unc] - dataset.X[unc] @ psi.beta
        quad += float(
            (1.0 + g * g / phi) * np.dot(e_zu, e_zu)
            - 2.0 * (g / phi) * np.dot(e_zu, e_yu)
            + np.dot(e_yu, e_yu) / phi
        )
    return -0.5 * (n_o * np.log(sp.phi) + quad)
