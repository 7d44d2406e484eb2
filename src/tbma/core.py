"""Domain types for the two-equation censored-outcome model.

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
from scipy.linalg import block_diag
from scipy.linalg.lapack import dpotrf, dpotrs

from .blas import blas_single_thread
from .errors import InvalidParameter, InvalidState, NumericalError

__all__ = [
    "TobitDataset",
    "SigmaParams",
    "ModelIndicator",
    "ModelPrior",
    "RestrictedPrior",
    "PriorSpec",
    "LatentScores",
    "row_dots",
]


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``, or ``values`` itself when it already is
    a read-only array of ``dtype`` that owns its data, so frozen objects share it."""
    frozen = isinstance(values, np.ndarray) and values.flags.owndata and not values.flags.writeable
    if frozen and values.dtype == dtype:
        return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def row_dots(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``rows @ vec`` as one BLAS dot product per row: numpy runs a stack of
    1 x n by n products as ``ddot`` calls, so each entry has the bits of
    ``np.dot(row, vec)``.  One matrix-vector product over the rows would sum
    in another order, and the chains' bits would change."""
    return np.matmul(rows[:, None, :], vec)[:, 0]


@dataclass(frozen=True)
class _DesignSplit:
    """Row split and cross products that depend only on the censoring pattern.

    The latent sign pattern always equals the censoring pattern, so these
    sums are fixed for the lifetime of a dataset and shared by every sweep.
    Each design half is stored transposed, one contiguous row per covariate,
    in stacked order: ``WX_unc`` is (p + q) x n_unc, the rows of W over the
    uncensored rows of the data followed by those of X, and ``W_cen`` is
    p x n_cen.  ``cross_y_unc`` holds each row of ``WX_unc`` dotted with
    ``y_unc``.
    """

    uncensored_idx: np.ndarray
    censored_idx: np.ndarray
    WX_unc: np.ndarray
    y_unc: np.ndarray
    W_cen: np.ndarray
    cross_y_unc: np.ndarray
    gram_ww_unc: np.ndarray
    gram_wx_unc: np.ndarray
    gram_xx_unc: np.ndarray
    gram_ww_cen: np.ndarray


def _transposed_rows(mats: tuple[np.ndarray, ...], rows: np.ndarray) -> np.ndarray:
    """``mats`` side by side, at ``rows``, transposed: a read-only C-contiguous
    array gathered without a row-major intermediate."""
    out = np.empty((sum(mat.shape[1] for mat in mats), rows.size))
    start = 0
    for mat in mats:
        stop = start + mat.shape[1]
        np.take(mat.T, rows, axis=1, out=out[start:stop], mode="clip")  # "raise" would buffer the output
        start = stop
    out.setflags(write=False)
    return out


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
        # Every product runs on one thread, so its sums do not depend on the
        # thread count (see ``tbma.blas``); A @ A.T runs as one BLAS syrk.
        with blas_single_thread():
            unc = np.flatnonzero(~self.censored)
            cen = np.flatnonzero(self.censored)
            p = self.p
            WX_unc = _transposed_rows((self.W, self.X), unc)
            W_cen = _transposed_rows((self.W,), cen)
            gram_unc = WX_unc @ WX_unc.T
            y_unc = self.y[unc]
            y_unc.setflags(write=False)
            return _DesignSplit(
                uncensored_idx=unc,
                censored_idx=cen,
                WX_unc=WX_unc,
                y_unc=y_unc,
                W_cen=W_cen,
                cross_y_unc=row_dots(WX_unc, y_unc),
                gram_ww_unc=gram_unc[:p, :p],
                gram_wx_unc=gram_unc[:p, p:],
                gram_xx_unc=gram_unc[p:, p:],
                gram_ww_cen=W_cen @ W_cen.T,
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


@dataclass(frozen=True, eq=False)
class ModelIndicator:
    """Inclusion bits over the stacked length-(p+q) covariate vector, the
    ``p`` selection covariates first, with an always-included (forced) mask.

    Every model toggled from this one shares its ``forced`` array.
    """

    include: np.ndarray
    forced: np.ndarray
    p: int

    def __post_init__(self):
        object.__setattr__(self, "include", _frozen_array(self.include, bool))
        object.__setattr__(self, "forced", _frozen_array(self.forced, bool))
        if self.include.ndim != 1 or self.forced.shape != self.include.shape:
            raise InvalidParameter("include and forced must be 1-d masks of equal length")
        if not 0 <= self.p <= self.include.size:
            raise InvalidParameter(f"p must satisfy 0 <= p <= {self.include.size}, got {self.p}")
        if np.count_nonzero(self.forced > self.include):
            raise InvalidParameter("forced bits must be set in the include mask")

    @property
    def q(self) -> int:
        return self.include.size - self.p

    @cached_property
    def active_positions(self) -> np.ndarray:
        """Active indices into the stacked length-(p+q) coefficient vector."""
        return self.include.nonzero()[0]

    @property
    def active_w(self) -> np.ndarray:
        return np.flatnonzero(self.include[: self.p])

    @property
    def active_x(self) -> np.ndarray:
        return np.flatnonzero(self.include[self.p :])

    @property
    def d(self) -> int:
        return self.active_positions.size

    def key(self) -> tuple[bool, ...]:
        """Hashable identity of the inclusion pattern."""
        return tuple(self.include.tolist())

    def free_positions(self) -> np.ndarray:
        """Stacked positions whose bit may be toggled; formed once per model, read-only."""
        return self._free_positions

    @cached_property
    def _free_positions(self) -> np.ndarray:
        free = (~self.forced).nonzero()[0]
        free.setflags(write=False)
        return free

    def with_toggled(self, position: int) -> "ModelIndicator":
        """Return a copy with one stacked inclusion bit flipped."""
        if not 0 <= position < self.include.size:
            raise InvalidParameter(f"position {position} out of range")
        if self.forced[position]:
            raise InvalidParameter(f"cannot toggle forced position {position}")
        include = self.include.copy()
        include[position] = not include[position]
        include.setflags(write=False)
        return ModelIndicator(include, self.forced, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelIndicator):
            return NotImplemented
        return (
            self.p == other.p
            and np.array_equal(self.include, other.include)
            and np.array_equal(self.forced, other.forced)
        )

    def __hash__(self):
        return hash((self.key(), self.forced.tobytes()))

    @classmethod
    def full_model(cls, p: int, q: int, forced=None) -> "ModelIndicator":
        forced = np.zeros(p + q, dtype=bool) if forced is None else forced
        return cls(np.ones(p + q, dtype=bool), forced, p)

    @classmethod
    def null_model(cls, p: int, q: int, forced=None) -> "ModelIndicator":
        forced = np.zeros(p + q, dtype=bool) if forced is None else forced
        return cls(forced, forced, p)


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

    def toggle_log_ratio(self, adding: bool) -> float:
        """log pr(toggled) - log pr(current) for a model that toggles one
        free bit: on when ``adding``, off otherwise.  Forced bits carry no
        mass, and a toggle never reaches them."""
        if self.kind == "flat":
            return 0.0
        log_odds = np.log(self.pi) - np.log1p(-self.pi)
        return log_odds if adding else -log_odds


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
class RestrictedPrior:
    """The prior terms of one model's coefficient conditional, on its active
    subspace A, all read-only: the precision ``Psi0_A^{-1}``, the vector
    ``Psi0_A^{-1} psi0_A``, ``log|Psi0_A|`` and ``psi0_A' Psi0_A^{-1} psi0_A``."""

    precision: np.ndarray
    precision_mean: np.ndarray
    logdet: float
    quad: float


# Bytes of restricted prior precisions (d^2 * 8 for a model of size d) that a
# PriorSpec keeps.  Every model scored in an 800-sweep chain at the paper's
# shape near d = 8 (about 0.23 MB), or in a 1 500-sweep chain on 6 + 6
# covariates (about 0.02 MB), fits; at d = 100 about ten models do.
PRIOR_CACHE_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Coefficient and covariance priors, plus the prior over the model space.

    The stacked prior mean and block-diagonal prior covariance follow from
    the per-equation blocks; phi carries an inverse-gamma prior with density
    proportional to x**(-s0/2 - 1) * exp(-S0 / (2 x)).

    ``restricted`` keeps the prior terms of the models it was last asked
    for while their precisions take at most ``PRIOR_CACHE_BYTES``.
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
    _restricted: dict[bytes, RestrictedPrior] = field(init=False, repr=False, default_factory=dict)
    _restricted_nbytes: int = field(init=False, repr=False, default=0)

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

    @cached_property
    def psi0(self) -> np.ndarray:
        return _frozen_array(np.concatenate([self.theta0, self.beta0]), np.float64)

    @cached_property
    def Psi0(self) -> np.ndarray:
        return _frozen_array(block_diag(self.Theta0, self.B0), np.float64)

    @cached_property
    def variances(self) -> np.ndarray:
        """The diagonal of ``Psi0``: each stacked coefficient's prior variance."""
        return _frozen_array(np.diag(self.Psi0), np.float64)

    @cached_property
    def is_diagonal(self) -> bool:
        """Whether ``Psi0`` is diagonal, so that the coefficients are a
        priori independent and a model's prior terms are sums over its
        covariates."""
        return bool(np.array_equal(self.Psi0, np.diag(self.variances)))

    def restrict(self, model: ModelIndicator) -> tuple[np.ndarray, np.ndarray]:
        """Prior mean and covariance on the active coefficient subspace."""
        active = model.active_positions
        return self.psi0[active], self.Psi0[active[:, None], active]

    def restricted(self, model: ModelIndicator) -> RestrictedPrior:
        """The prior terms on ``model``'s active subspace (at least one
        covariate), formed from ``restrict`` once and then kept.  The least
        recently used models' terms are dropped while the kept precisions
        take more than ``PRIOR_CACHE_BYTES``; the newest entry always stays."""
        key = model.include.tobytes()
        cache = self._restricted
        terms = cache.pop(key, None)
        if terms is None:
            terms = _restricted_terms(*self.restrict(model))
            held = self._restricted_nbytes + terms.precision.nbytes
            while cache and held > PRIOR_CACHE_BYTES:
                held -= cache.pop(next(iter(cache))).precision.nbytes
            object.__setattr__(self, "_restricted_nbytes", held)
        cache[key] = terms
        return terms

    @cached_property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for part in (self.theta0, self.Theta0, self.beta0, self.B0):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr((self.gamma0, self.G0, self.s0, self.S0, self.model_prior)).encode())
        return h.hexdigest()


def _restricted_terms(psi0: np.ndarray, Psi0: np.ndarray) -> RestrictedPrior:
    cho0, info = dpotrf(Psi0, lower=1, clean=0)
    if info:
        raise NumericalError("prior covariance block is not positive definite")
    logdet = 2.0 * float(np.log(cho0.diagonal()).sum())
    precision_mean, _ = dpotrs(cho0, psi0, lower=1)
    quad = float(psi0 @ precision_mean)
    precision, _ = dpotrs(cho0, np.eye(psi0.size), lower=1)
    for values in (precision, precision_mean):
        values.setflags(write=False)
    return RestrictedPrior(precision, precision_mean, logdet, quad)


def _check_latent_half(name: str, values) -> None:
    if not isinstance(values, np.ndarray) or values.dtype != np.float64 or values.ndim != 1:
        raise InvalidParameter(f"{name} must be a 1-d float64 array")
    if values.flags.writeable:
        raise InvalidParameter(f"{name} must be read-only")


@dataclass(frozen=True, eq=False)
class LatentScores:
    """One sweep's latent selection scores by row half, read-only: ``z_unc``
    over the uncensored rows and ``z_cen`` over the censored rows of a
    dataset, in the order of ``dataset.split``'s index arrays.

    The constructor owns the sign contract inside the sampler: every
    uncensored score is at least 0 and every censored score below 0.
    """

    z_unc: np.ndarray
    z_cen: np.ndarray

    def __post_init__(self):
        _check_latent_half("z_unc", self.z_unc)
        _check_latent_half("z_cen", self.z_cen)
        # min/max propagate NaN: a NaN censored score fails, as z < 0 does.
        if self.z_unc.size and self.z_unc.min() < 0.0:
            raise InvalidState("an uncensored row's latent score is negative")
        if self.z_cen.size and not self.z_cen.max() < 0.0:
            raise InvalidState("a censored row's latent score is not negative")

    @classmethod
    def from_rows(cls, dataset: TobitDataset, z) -> LatentScores:
        """The halves of a row-order latent vector ``z`` of ``dataset``."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (dataset.n,):
            raise InvalidParameter(f"z must have length {dataset.n}")
        split = dataset.split
        z_unc, z_cen = z[split.uncensored_idx], z[split.censored_idx]
        for values in (z_unc, z_cen):
            values.setflags(write=False)
        return cls(z_unc, z_cen)

    def check_fits(self, dataset: TobitDataset) -> None:
        """Require one score per uncensored and per censored row of ``dataset``."""
        n_unc = dataset.split.uncensored_idx.size
        if self.z_unc.shape != (n_unc,) or self.z_cen.shape != (dataset.n - n_unc,):
            raise InvalidParameter(
                f"latent halves have {self.z_unc.size} + {self.z_cen.size} scores, the dataset "
                f"{n_unc} uncensored + {dataset.n - n_unc} censored rows"
            )


def check_sign_consistency(dataset: TobitDataset, z: np.ndarray) -> np.ndarray:
    """Require z < 0 exactly on censored rows of a row-order latent vector;
    returns z as a float array.  The oracle's densities read z in row order;
    the sampler's halves check the same contract in ``LatentScores``."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (dataset.n,):
        raise InvalidParameter(f"z must have length {dataset.n}")
    neg = z < 0.0
    if not np.array_equal(neg, dataset.censored):
        raise InvalidState("sign of z is inconsistent with the censoring pattern")
    return z
