import numpy as np
import pytest

import tbma.search
from tbma.core import ModelIndicator, PriorSpec, TobitDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def memo_marginals(monkeypatch):
    """Memoize the marginals mc3_step scores, keyed by inclusion pattern.

    ``install(adjust)`` rebinds ``tbma.search.conditional_log_marginal`` to a
    fresh memo over the real function, optionally passing each new result
    through ``adjust``.  Only valid while the latent scores and covariance
    are held fixed, as in the enumeration checks.
    """
    real = tbma.search.conditional_log_marginal

    def install(adjust=None):
        memo = {}

        def memoized(dataset, z, model, sp, prior):
            key = model.key()
            hit = memo.get(key)
            if hit is None:
                hit = real(dataset, z, model, sp, prior)
                if adjust is not None:
                    hit = adjust(hit)
                memo[key] = hit
            return hit

        monkeypatch.setattr(tbma.search, "conditional_log_marginal", memoized)

    return install


def unit_prior(p, q, **overrides):
    """Standard-normal coefficient blocks; handy for oracle comparisons."""
    kwargs = dict(
        theta0=np.zeros(p),
        Theta0=np.eye(p),
        beta0=np.zeros(q),
        B0=np.eye(q),
        gamma0=0.0,
        G0=1.0,
        s0=4.0,
        S0=4.0,
    )
    kwargs.update(overrides)
    return PriorSpec(**kwargs)


def make_dataset(n=30, p=2, q=2, seed=0, censored_fraction=0.4):
    """Deterministic mixed-censoring dataset with arbitrary stored y at censored rows."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, p))
    X = rng.standard_normal((n, q))
    censored = rng.uniform(size=n) < censored_fraction
    y = np.where(censored, 0.0, rng.standard_normal(n))
    return TobitDataset(
        W=W,
        X=X,
        y=y,
        censored=censored,
        column_names_w=tuple(f"w{j}" for j in range(p)),
        column_names_x=tuple(f"x{j}" for j in range(q)),
    )


def consistent_z(dataset, seed=1):
    """A latent vector whose sign pattern matches the censoring pattern."""
    rng = np.random.default_rng(seed)
    mag = rng.exponential(size=dataset.n) + 0.05
    return np.where(dataset.censored, -mag, mag)


def full_model(p, q):
    return ModelIndicator.full_model(p, q)
