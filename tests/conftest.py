import numpy as np
import pytest

import tbma.search
from tbma.conditionals import fitted_values, model_rows, sample_latent
from tbma.core import LatentScores, ModelIndicator, PriorSpec, SigmaParams, TobitDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def memo_marginals(monkeypatch):
    """Memoize the scores mc3_step computes: the marginals, keyed by
    inclusion pattern, and the toggles' log Bayes factors, keyed by the
    current pattern and the toggled position.

    ``install()`` rebinds ``tbma.search.conditional_log_marginal`` and
    ``tbma.search.toggle_log_bayes_factor`` to fresh memos over the real
    functions.  Only valid while the latent scores and covariance are held
    fixed, as in the enumeration checks.
    """
    real = tbma.search.conditional_log_marginal
    real_toggle = tbma.search.toggle_log_bayes_factor

    def install():
        marginals, toggles = {}, {}

        def memoized(stats, prior, model):
            key = model.key()
            hit = marginals.get(key)
            if hit is None:
                hit = marginals[key] = real(stats, prior, model)
            return hit

        def memoized_toggle(stats, prior, current, position):
            key = (current.model.key(), position)
            hit = toggles.get(key)
            if hit is None:
                hit = toggles[key] = real_toggle(stats, prior, current, position)
            return hit

        monkeypatch.setattr(tbma.search, "conditional_log_marginal", memoized)
        monkeypatch.setattr(tbma.search, "toggle_log_bayes_factor", memoized_toggle)

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


def full_fit(dataset, psi):
    """Fitted values of a stacked length-(p + q) coefficient vector, which
    may be nonzero at any covariate, from the full model's rows of the design."""
    return fitted_values(model_rows(dataset, ModelIndicator.full_model(dataset.p, dataset.q)), psi)


def null_rows(dataset):
    """The null model's (empty) row block: sweep statistics built from it
    form every linear-term entry on first read."""
    return model_rows(dataset, ModelIndicator.null_model(dataset.p, dataset.q))


def consistent_z(dataset, seed=1):
    """A latent vector whose sign pattern matches the censoring pattern."""
    rng = np.random.default_rng(seed)
    mag = rng.exponential(size=dataset.n) + 0.05
    return np.where(dataset.censored, -mag, mag)


def latent_scores(dataset, z):
    """The sampler's halves of a row-order latent vector ``z``."""
    return LatentScores.from_rows(dataset, z)


def latent_rows(dataset, latent):
    """The halves of ``latent`` scattered back into row order."""
    z = np.empty(dataset.n)
    z[dataset.split.uncensored_idx] = latent.z_unc
    z[dataset.split.censored_idx] = latent.z_cen
    return z


def uncensored_residuals(dataset, z, fit):
    """The residual pair (z - W theta, y - X beta) over the uncensored rows
    that the gamma and phi conditionals read, from a row-order ``z``."""
    return latent_scores(dataset, z).z_unc - fit.sel_unc, fit.resid_unc


def full_model(p, q):
    return ModelIndicator.full_model(p, q)


def truncated_normal_draws(mu, n, negative, rng):
    """n draws of N(mu, 1) restricted to (-inf, 0) if ``negative``, else to
    [0, inf), through the sampler's own latent draw.

    One constant column gives every row the selection mean mu.  Censored
    rows draw below zero at unit scale; uncensored rows with gamma = 0 and
    phi = 1 draw at or above zero with sd 1.
    """
    dataset = TobitDataset(
        W=np.ones((n, 1)), X=np.zeros((n, 1)), y=np.zeros(n), censored=np.full(n, bool(negative)),
        column_names_w=("w",), column_names_x=("x",),
    )
    psi = np.array([float(mu), 0.0])
    latent = sample_latent(dataset, full_fit(dataset, psi), SigmaParams(0.0, 1.0), rng)
    return latent.z_cen if negative else latent.z_unc
